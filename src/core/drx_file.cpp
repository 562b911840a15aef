#include "core/drx_file.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <vector>

#include "core/scatter.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/opctx.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace drx::core {

namespace {

/// Slot granularity of compressed arrays.
constexpr std::uint64_t kSlotAlign = 64;

/// A chunk's first slot: its stored size rounded up to 64, capped at the
/// raw chunk size (a slot never needs more — incompressible chunks are
/// stored raw). Tight, so freshly allocated neighbours stay near-dense
/// and coalesce into one request without writing much padding.
std::uint64_t first_capacity(std::uint64_t stored, std::uint64_t chunk_sz) {
  return std::min(chunk_sz,
                  (stored + kSlotAlign - 1) / kSlotAlign * kSlotAlign);
}

/// The slot of a chunk that outgrew its old one: ~12.5% headroom, so the
/// next growth of a chunk that is evidently growing fits in place.
std::uint64_t grown_capacity(std::uint64_t stored, std::uint64_t chunk_sz) {
  return first_capacity(stored + stored / 8, chunk_sz);
}

/// raw bytes / elapsed microseconds ~= MB/s: the effective-bandwidth
/// histogram of docs/COMPRESSION.md (what the consumer *observed*,
/// decode included, vs bytes that actually crossed the storage).
void record_effective_read_bw(std::size_t raw_bytes,
                              std::chrono::steady_clock::time_point start) {
  static const obs::MetricId kBw =
      obs::histogram_id("core.codec.effective_read_mbps");
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  const auto us = std::max<std::int64_t>(1, ns / 1000);
  obs::registry()
      .histogram(kBw)
      .observe(static_cast<std::uint64_t>(raw_bytes) /
               static_cast<std::uint64_t>(us));
}

}  // namespace

Result<DrxFile> DrxFile::create(std::unique_ptr<pfs::Storage> meta_storage,
                                std::unique_ptr<pfs::Storage> data_storage,
                                Shape element_bounds, Shape chunk_shape,
                                const Options& options) {
  if (element_bounds.size() != chunk_shape.size() || element_bounds.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "element bounds and chunk shape must have equal rank >= 1");
  }
  for (std::uint64_t c : chunk_shape) {
    if (c == 0) {
      return Status(ErrorCode::kInvalidArgument, "zero chunk extent");
    }
  }
  Metadata meta(options.dtype, options.in_chunk_order,
                std::move(element_bounds), std::move(chunk_shape));
  meta.codec = options.codec.value_or(codec::default_codec());
  if (meta.compressed() &&
      meta.chunk_bytes() > std::numeric_limits<std::uint32_t>::max()) {
    return Status(ErrorCode::kUnsupported,
                  "chunk too large for the per-chunk slot table");
  }
  DrxFile file(std::move(meta_storage), std::move(data_storage),
               std::move(meta));
  // Every allocated chunk must read as zeros immediately: compressed
  // arrays start with unwritten slots (no bytes stored), uncompressed
  // ones zero-fill their dense layout.
  DRX_RETURN_IF_ERROR(file.data_->truncate(0));
  if (file.compressed()) {
    file.meta_.chunk_table.resize(
        checked_size(file.meta_.mapping.total_chunks()));
  } else if (file.meta_.data_file_bytes() > 0) {
    std::vector<std::byte> zeros(checked_size(file.meta_.chunk_bytes()),
                                 std::byte{0});
    for (std::uint64_t q = 0; q < file.meta_.mapping.total_chunks(); ++q) {
      DRX_RETURN_IF_ERROR(
          file.data_->write_at(q * file.meta_.chunk_bytes(), zeros));
    }
  }
  DRX_RETURN_IF_ERROR(file.flush());
  return file;
}

Result<DrxFile> DrxFile::open(std::unique_ptr<pfs::Storage> meta_storage,
                              std::unique_ptr<pfs::Storage> data_storage) {
  std::vector<std::byte> image(
      checked_size(meta_storage->size()));
  DRX_RETURN_IF_ERROR(meta_storage->read_at(0, image));
  DRX_ASSIGN_OR_RETURN(Metadata meta, Metadata::from_bytes(image));
  if (data_storage->size() < meta.stored_data_bytes()) {
    return Status(ErrorCode::kCorrupt,
                  ".xta smaller than the metadata requires");
  }
  DrxFile file(std::move(meta_storage), std::move(data_storage),
               std::move(meta));
  file.meta_dirty_ = false;  // the image on storage is exactly meta_
  return file;
}

Result<DrxFile> DrxFile::create_posix(const std::string& name,
                                      Shape element_bounds, Shape chunk_shape,
                                      const Options& options) {
  DRX_ASSIGN_OR_RETURN(auto meta_storage,
                       pfs::PosixStorage::open(name + ".xmd"));
  DRX_ASSIGN_OR_RETURN(auto data_storage,
                       pfs::PosixStorage::open(name + ".xta"));
  return create(std::move(meta_storage), std::move(data_storage),
                std::move(element_bounds), std::move(chunk_shape), options);
}

Result<DrxFile> DrxFile::open_posix(const std::string& name) {
  DRX_ASSIGN_OR_RETURN(auto meta_storage,
                       pfs::PosixStorage::open(name + ".xmd"));
  DRX_ASSIGN_OR_RETURN(auto data_storage,
                       pfs::PosixStorage::open(name + ".xta"));
  return open(std::move(meta_storage), std::move(data_storage));
}

Status DrxFile::flush() {
  // Typed references: drx_verify resolves `xmd.flush` to Storage::flush
  // instead of every `flush` in the tree (ChunkCache::flush calls this
  // under its io mutex).
  pfs::Storage& xmd = *meta_store_;
  pfs::Storage& xta = *data_;
  if (meta_dirty_) {
    const std::vector<std::byte> image = meta_.to_bytes();
    DRX_RETURN_IF_ERROR(xmd.write_at(0, image));
    meta_dirty_ = false;
  }
  DRX_RETURN_IF_ERROR(xmd.flush());
  return xta.flush();
}

Status DrxFile::extend(std::size_t dim, std::uint64_t delta) {
  obs::OpScope op("op.extend");
  if (dim >= rank()) {
    return Status(ErrorCode::kInvalidArgument, "dimension out of range");
  }
  if (delta == 0) return Status::ok();

  meta_dirty_ = true;
  if (const auto first = meta_.extend_elements(dim, delta)) {
    if (compressed()) {
      // Appended chunks get unwritten slots: no data bytes move.
      meta_.chunk_table.resize(checked_size(meta_.mapping.total_chunks()));
    } else {
      // Zero-fill the appended segment (it is physically contiguous:
      // new chunks always append to the file).
      const std::uint64_t chunk_sz = meta_.chunk_bytes();
      std::vector<std::byte> zeros(checked_size(chunk_sz), std::byte{0});
      for (std::uint64_t q = *first; q < meta_.mapping.total_chunks(); ++q) {
        DRX_RETURN_IF_ERROR(data_->write_at(q * chunk_sz, zeros));
      }
    }
  }
  return flush();
}

Status DrxFile::check_index(std::span<const std::uint64_t> index) const {
  if (index.size() != rank()) {
    return Status(ErrorCode::kInvalidArgument, "index rank mismatch");
  }
  for (std::size_t d = 0; d < rank(); ++d) {
    if (index[d] >= meta_.element_bounds[d]) {
      return Status(ErrorCode::kOutOfRange, "element index out of bounds");
    }
  }
  return Status::ok();
}

Status DrxFile::read_element(std::span<const std::uint64_t> index,
                             std::span<std::byte> out) {
  obs::OpScope op("op.read_element");
  DRX_RETURN_IF_ERROR(check_index(index));
  DRX_CHECK(out.size() == element_bytes());
  const Index chunk = chunk_space_.chunk_of(index);
  const std::uint64_t q = meta_.mapping.address_of(chunk);
  const std::uint64_t off = chunk_space_.offset_in_chunk(index);
  if (compressed()) {
    // Sub-chunk byte offsets have no storage address once chunks are
    // encoded: decode the whole chunk and pick the element out.
    std::vector<std::byte> chunk_buf(checked_size(meta_.chunk_bytes()));
    DRX_RETURN_IF_ERROR(read_chunk(q, chunk_buf));
    std::memcpy(out.data(),
                chunk_buf.data() + checked_size(checked_mul(off, element_bytes())),
                checked_size(element_bytes()));
    return Status::ok();
  }
  obs::StageTimer io(obs::Stage::kIoService);
  return data_->read_at(
      checked_add(checked_mul(q, meta_.chunk_bytes()),
                  checked_mul(off, element_bytes())),
      out);
}

Status DrxFile::write_element(std::span<const std::uint64_t> index,
                              std::span<const std::byte> value) {
  obs::OpScope op("op.write_element");
  DRX_RETURN_IF_ERROR(check_index(index));
  DRX_CHECK(value.size() == element_bytes());
  const Index chunk = chunk_space_.chunk_of(index);
  const std::uint64_t q = meta_.mapping.address_of(chunk);
  const std::uint64_t off = chunk_space_.offset_in_chunk(index);
  if (compressed()) {
    // Whole-chunk read-modify-write: the encoded neighbours share the
    // stored stream with this element.
    std::vector<std::byte> chunk_buf(checked_size(meta_.chunk_bytes()));
    DRX_RETURN_IF_ERROR(read_chunk(q, chunk_buf));
    std::memcpy(chunk_buf.data() +
                    checked_size(checked_mul(off, element_bytes())),
                value.data(), checked_size(element_bytes()));
    return write_chunk(q, chunk_buf);
  }
  obs::StageTimer io(obs::Stage::kIoService);
  return data_->write_at(
      checked_add(checked_mul(q, meta_.chunk_bytes()),
                  checked_mul(off, element_bytes())),
      value);
}

void DrxFile::scatter_chunk(std::span<const std::byte> chunk, const Box& clip,
                            const Box& box, MemoryOrder order,
                            std::span<std::byte> out) const {
  if (clip.empty()) return;
  obs::StageTimer copy(obs::Stage::kCopy);
  plan_cache_->scatter(clip, box, order, chunk, out);
}

void DrxFile::gather_chunk(std::span<std::byte> chunk, const Box& clip,
                           const Box& box, MemoryOrder order,
                           std::span<const std::byte> in) const {
  if (clip.empty()) return;
  obs::StageTimer copy(obs::Stage::kCopy);
  plan_cache_->gather(clip, box, order, chunk, in);
}

std::vector<std::pair<std::uint64_t, Index>> DrxFile::chunks_by_address(
    const Box& box) const {
  std::vector<std::pair<std::uint64_t, Index>> chunks;
  for_each_index(chunk_space_.covering_chunks(box), [&](const Index& cidx) {
    chunks.emplace_back(meta_.mapping.address_of(cidx), cidx);
  });
  std::sort(chunks.begin(), chunks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return chunks;
}

Status DrxFile::read_box(const Box& box, MemoryOrder order,
                         std::span<std::byte> out) {
  obs::OpScope op("op.read_box");
  if (box.rank() != rank()) {
    return Status(ErrorCode::kInvalidArgument, "box rank mismatch");
  }
  for (std::size_t d = 0; d < rank(); ++d) {
    if (box.hi[d] > meta_.element_bounds[d]) {
      return Status(ErrorCode::kOutOfRange, "box exceeds array bounds");
    }
  }
  DRX_CHECK(out.size() == checked_mul(box.volume(), element_bytes()));
  if (box.empty()) return Status::ok();

  std::vector<std::byte> chunk_buf(checked_size(meta_.chunk_bytes()));
  Status status;
  for (const auto& [q, cidx] : chunks_by_address(box)) {
    status = read_chunk(q, chunk_buf);
    if (!status.is_ok()) break;
    const Box clip = chunk_space_.chunk_box(cidx).intersect(box);
    scatter_chunk(chunk_buf, clip, box, order, out);
  }
  return status;
}

Status DrxFile::write_box(const Box& box, MemoryOrder order,
                          std::span<const std::byte> in) {
  obs::OpScope op("op.write_box");
  if (box.rank() != rank()) {
    return Status(ErrorCode::kInvalidArgument, "box rank mismatch");
  }
  for (std::size_t d = 0; d < rank(); ++d) {
    if (box.hi[d] > meta_.element_bounds[d]) {
      return Status(ErrorCode::kOutOfRange, "box exceeds array bounds");
    }
  }
  DRX_CHECK(in.size() == checked_mul(box.volume(), element_bytes()));
  if (box.empty()) return Status::ok();

  std::vector<std::byte> chunk_buf(checked_size(meta_.chunk_bytes()));
  Status status;
  for (const auto& [q, cidx] : chunks_by_address(box)) {
    const Box chunk_box = chunk_space_.chunk_box(cidx);
    const Box clip = chunk_box.intersect(box);
    // Read-modify-write unless the chunk is fully covered by the box.
    if (clip == chunk_box) {
      std::memset(chunk_buf.data(), 0, chunk_buf.size());
    } else {
      status = read_chunk(q, chunk_buf);
      if (!status.is_ok()) break;
    }
    gather_chunk(chunk_buf, clip, box, order, in);
    status = write_chunk(q, chunk_buf);
    if (!status.is_ok()) break;
  }
  return status;
}

Status DrxFile::scan_read_all(MemoryOrder order, std::span<std::byte> out) {
  obs::OpScope op("op.scan_read_all");
  const Box full{Index(rank(), 0), meta_.element_bounds};
  DRX_CHECK(out.size() == checked_mul(full.volume(), element_bytes()));
  std::vector<std::byte> chunk_buf(checked_size(meta_.chunk_bytes()));
  // One strictly sequential pass over the .xta file; F*^-1 recovers each
  // chunk's grid coordinates for placement.
  for (std::uint64_t q = 0; q < meta_.mapping.total_chunks(); ++q) {
    DRX_RETURN_IF_ERROR(read_chunk(q, chunk_buf));
    const Index cidx = meta_.mapping.index_of(q);
    const Box clip = chunk_space_.chunk_box(cidx).intersect(full);
    if (clip.empty()) continue;  // chunk entirely in the slack region
    scatter_chunk(chunk_buf, clip, full, order, out);
  }
  return Status::ok();
}

Status DrxFile::read_chunk(std::uint64_t address, std::span<std::byte> out) {
  DRX_CHECK(out.size() == meta_.chunk_bytes());
  if (compressed()) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::byte> scratch;
    DRX_ASSIGN_OR_RETURN(EncodedChunk enc, read_chunk_stored(address, scratch));
    DRX_RETURN_IF_ERROR(decode_chunk(enc.codec, enc.bytes, out));
    record_effective_read_bw(out.size(), start);
    return Status::ok();
  }
  static const obs::MetricId kReads = obs::counter_id("core.chunk_reads");
  static const obs::MetricId kBytes = obs::counter_id("core.bytes_read");
  obs::registry().counter(kReads).add();
  obs::registry().counter(kBytes).add(out.size());
  obs::profile_chunk(obs::ChunkOp::kRead, address, out.size());
  obs::ScopedSpan span("core.read_chunk", "core", out.size());
  obs::StageTimer io(obs::Stage::kIoService);
  return data_->read_at(checked_mul(address, meta_.chunk_bytes()), out);
}

Status DrxFile::read_chunks(std::uint64_t first_address, std::uint64_t count,
                            std::span<std::byte> out) {
  DRX_CHECK(out.size() == checked_mul(count, meta_.chunk_bytes()));
  if (count == 0) return Status::ok();
  if (compressed()) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t cb = checked_size(meta_.chunk_bytes());
    std::vector<std::byte> scratch;
    std::vector<StoredRef> refs;
    DRX_RETURN_IF_ERROR(read_chunks_stored(first_address, count, scratch, refs));
    for (std::size_t i = 0; i < refs.size(); ++i) {
      DRX_RETURN_IF_ERROR(decode_chunk(
          refs[i].codec,
          std::span<const std::byte>(scratch.data() + refs[i].offset,
                                     refs[i].size),
          out.subspan(i * cb, cb)));
    }
    record_effective_read_bw(out.size(), start);
    return Status::ok();
  }
  static const obs::MetricId kReads = obs::counter_id("core.chunk_reads");
  static const obs::MetricId kBatches =
      obs::counter_id("core.chunk_read_batches");
  static const obs::MetricId kBytes = obs::counter_id("core.bytes_read");
  obs::registry().counter(kReads).add(count);
  obs::registry().counter(kBatches).add();
  obs::registry().counter(kBytes).add(out.size());
  if (obs::profile_enabled()) {
    for (std::uint64_t i = 0; i < count; ++i) {
      obs::profile_chunk(obs::ChunkOp::kRead, first_address + i,
                         meta_.chunk_bytes());
    }
  }
  obs::ScopedSpan span("core.read_chunks_batch", "core", out.size());
  obs::StageTimer io(obs::Stage::kIoService);
  return data_->read_at(checked_mul(first_address, meta_.chunk_bytes()), out);
}

void DrxFile::prefetch_box(const Box& box) {
  if (prefetch_sink_ == nullptr) return;
  const Box clipped = box.intersect(Box{Index(rank(), 0), bounds()});
  if (clipped.empty()) return;
  // Element box -> covering chunk-index box -> sorted linear addresses ->
  // maximal contiguous runs, one hint per run.
  Box chunks(Index(rank(), 0), Index(rank(), 0));
  for (std::size_t d = 0; d < rank(); ++d) {
    chunks.lo[d] = clipped.lo[d] / meta_.chunk_shape[d];
    chunks.hi[d] = (clipped.hi[d] - 1) / meta_.chunk_shape[d] + 1;
  }
  std::vector<std::uint64_t> addresses;
  addresses.reserve(checked_size(chunks.volume()));
  for_each_index(chunks, [&](const Index& c) {
    addresses.push_back(meta_.mapping.address_of(c));
  });
  std::sort(addresses.begin(), addresses.end());
  std::size_t run_begin = 0;
  for (std::size_t i = 1; i <= addresses.size(); ++i) {
    if (i == addresses.size() || addresses[i] != addresses[i - 1] + 1) {
      prefetch_sink_->prefetch_range(addresses[run_begin],
                                     static_cast<std::uint64_t>(i - run_begin));
      run_begin = i;
    }
  }
}

Status DrxFile::write_chunk(std::uint64_t address,
                            std::span<const std::byte> in) {
  std::vector<std::byte> scratch;
  ChunkWrite one{address, encode_chunk(in, scratch)};
  return write_chunks(std::span<ChunkWrite>(&one, 1));
}

// ---- split codec / storage API (docs/COMPRESSION.md) --------------------

DrxFile::EncodedChunk DrxFile::encode_chunk(
    std::span<const std::byte> raw, std::vector<std::byte>& scratch) const {
  DRX_CHECK(raw.size() == meta_.chunk_bytes());
  if (!compressed()) return EncodedChunk{codec::CodecId::kNone, raw};
  static const obs::MetricId kEncodeUs =
      obs::histogram_id("core.codec.encode_us");
  scratch.resize(codec::max_encoded_bytes(raw.size(),
                                          checked_size(element_bytes())));
  std::size_t n = 0;
  {
    obs::ScopedTimer timer(kEncodeUs);
    n = codec::encode(meta_.codec, raw, checked_size(element_bytes()),
                      scratch);
  }
  if (n == 0) return EncodedChunk{codec::CodecId::kNone, raw};
  return EncodedChunk{meta_.codec,
                      std::span<const std::byte>(scratch.data(), n)};
}

Status DrxFile::write_chunks(std::span<ChunkWrite> batch) {
  if (batch.empty()) return Status::ok();
  std::sort(batch.begin(), batch.end(),
            [](const ChunkWrite& a, const ChunkWrite& b) {
              return a.address < b.address;
            });
  const std::uint64_t cb = meta_.chunk_bytes();
  const std::uint64_t total = meta_.mapping.total_chunks();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ChunkWrite& w = batch[i];
    if (w.address >= total) {
      return Status(ErrorCode::kOutOfRange, "chunk address out of range");
    }
    if (i > 0 && w.address == batch[i - 1].address) {
      return Status(ErrorCode::kInvalidArgument,
                    "duplicate chunk address in one write batch");
    }
    const bool raw = w.chunk.codec == codec::CodecId::kNone;
    if (w.chunk.bytes.empty() || w.chunk.bytes.size() > cb ||
        (raw && w.chunk.bytes.size() != cb) || (!compressed() && !raw)) {
      return Status(ErrorCode::kInvalidArgument, "malformed encoded chunk");
    }
  }
  static const obs::MetricId kWrites = obs::counter_id("core.chunk_writes");
  static const obs::MetricId kBytes = obs::counter_id("core.bytes_written");
  static const obs::MetricId kRaw = obs::counter_id("core.codec.bytes_raw");
  static const obs::MetricId kStored =
      obs::counter_id("core.codec.bytes_stored");
  static const obs::MetricId kRelocs =
      obs::counter_id("core.codec.slot_relocations");
  static const obs::MetricId kFrag = obs::counter_id("core.codec.frag_bytes");

  // Place every chunk: (offset, reserved bytes) plus, on a compressed
  // array, the slot it will own once its bytes are on storage.
  struct Piece {
    std::uint64_t offset = 0;
    std::uint64_t capacity = 0;
    std::size_t entry = 0;  ///< index into batch
    ChunkSlot slot;         ///< compressed arrays only
  };
  std::vector<Piece> pieces(batch.size());
  std::uint64_t live = 0;
  std::uint64_t next = meta_.data_end;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ChunkWrite& w = batch[i];
    const std::uint64_t stored = w.chunk.bytes.size();
    live += stored;
    obs::profile_chunk(obs::ChunkOp::kWrite, w.address, cb);
    if (!compressed()) {
      sample_write_entropy(w.chunk.bytes);
      pieces[i] = Piece{checked_mul(w.address, cb), cb, i, ChunkSlot{}};
      continue;
    }
    ChunkSlot slot = meta_.chunk_table[w.address];
    if (stored > slot.capacity) {
      // Doesn't fit (or never written): a fresh slot at the end of the
      // file, handed out in address order; an outgrown slot leaks
      // (append-only, like extension — drx_inspect reports the frag).
      const bool grown = !slot.unwritten();
      if (grown) {
        obs::registry().counter(kRelocs).add();
        obs::registry().counter(kFrag).add(slot.capacity);
      }
      slot.offset = next;
      slot.capacity = static_cast<std::uint32_t>(
          grown ? grown_capacity(stored, cb) : first_capacity(stored, cb));
      next = checked_add(next, slot.capacity);
    }
    slot.stored = static_cast<std::uint32_t>(stored);  // <= cb, fits
    slot.codec = static_cast<std::uint8_t>(w.chunk.codec);
    pieces[i] = Piece{slot.offset, slot.capacity, i, slot};
  }
  const auto n = static_cast<std::uint64_t>(batch.size());
  obs::registry().counter(kWrites).add(n);
  obs::registry().counter(kBytes).add(checked_mul(n, cb));  // logical bytes
  if (compressed()) {
    obs::registry().counter(kRaw).add(checked_mul(n, cb));
    obs::registry().counter(kStored).add(live);
    std::sort(pieces.begin(), pieces.end(),
              [](const Piece& a, const Piece& b) {
                return a.offset < b.offset;
              });
  }

  // One request per run of physically adjacent slots: a slot that starts
  // where the previous one's reservation ends joins its run, the padding
  // in between written as zeros.
  obs::ScopedSpan span("core.write_chunks", "core", checked_size(live));
  obs::StageTimer io(obs::Stage::kIoService);
  std::vector<std::byte> staging;
  for (std::size_t i = 0; i < pieces.size();) {
    std::size_t j = i + 1;
    while (j < pieces.size() &&
           pieces[j].offset == pieces[j - 1].offset + pieces[j - 1].capacity) {
      ++j;
    }
    const std::uint64_t base = pieces[i].offset;
    const auto bytes_of = [&](std::size_t k) {
      return batch[pieces[k].entry].chunk.bytes;
    };
    if (j == i + 1) {
      DRX_RETURN_IF_ERROR(data_->write_at(base, bytes_of(i)));
    } else {
      staging.assign(
          checked_size(pieces[j - 1].offset - base + bytes_of(j - 1).size()),
          std::byte{0});
      for (std::size_t k = i; k < j; ++k) {
        std::memcpy(staging.data() + (pieces[k].offset - base),
                    bytes_of(k).data(), bytes_of(k).size());
      }
      DRX_RETURN_IF_ERROR(data_->write_at(base, staging));
    }
    // Publish the slots of the run just stored — never earlier, so a
    // failed write leaves every chunk it touched pointing at its old slot.
    for (std::size_t k = i; compressed() && k < j; ++k) {
      const ChunkSlot& slot = pieces[k].slot;
      ChunkSlot& cur = meta_.chunk_table[batch[pieces[k].entry].address];
      if (cur != slot) {
        cur = slot;
        meta_dirty_ = true;
      }
      if (slot.offset + slot.capacity > meta_.data_end) {
        meta_.data_end = slot.offset + slot.capacity;
        meta_dirty_ = true;
      }
    }
    i = j;
  }
  return Status::ok();
}

Result<DrxFile::EncodedChunk> DrxFile::read_chunk_stored(
    std::uint64_t address, std::vector<std::byte>& scratch) {
  const std::uint64_t cb = meta_.chunk_bytes();
  static const obs::MetricId kReads = obs::counter_id("core.chunk_reads");
  static const obs::MetricId kBytes = obs::counter_id("core.bytes_read");
  obs::registry().counter(kReads).add();
  obs::registry().counter(kBytes).add(cb);  // logical bytes, as ever
  obs::profile_chunk(obs::ChunkOp::kRead, address, checked_size(cb));
  if (!compressed()) {
    scratch.resize(checked_size(cb));
    obs::ScopedSpan span("core.read_chunk", "core", scratch.size());
    obs::StageTimer io(obs::Stage::kIoService);
    DRX_RETURN_IF_ERROR(data_->read_at(checked_mul(address, cb), scratch));
    return EncodedChunk{codec::CodecId::kNone,
                        std::span<const std::byte>(scratch)};
  }
  if (address >= meta_.chunk_table.size()) {
    return Status(ErrorCode::kOutOfRange, "chunk address out of range");
  }
  const ChunkSlot& slot = meta_.chunk_table[address];
  if (slot.unwritten()) {
    // Never written: empty bytes, which decode_chunk turns into zeros.
    scratch.clear();
    return EncodedChunk{codec::CodecId::kNone, std::span<const std::byte>()};
  }
  // Read through the slot's reserved capacity when those bytes exist on
  // disk, as read_chunks_stored does for a batch: the head then rests
  // where the next slot starts, so a fault followed by a fault or a
  // read-ahead of the next address costs no seek.
  const std::uint64_t reserved =
      std::min<std::uint64_t>(slot.capacity, data_->size() - slot.offset);
  scratch.resize(checked_size(std::max<std::uint64_t>(slot.stored, reserved)));
  obs::ScopedSpan span("core.read_chunk", "core", slot.stored);
  obs::StageTimer io(obs::Stage::kIoService);
  DRX_RETURN_IF_ERROR(data_->read_at(slot.offset, scratch));
  return EncodedChunk{static_cast<codec::CodecId>(slot.codec),
                      std::span<const std::byte>(scratch.data(), slot.stored)};
}

Status DrxFile::decode_chunk(codec::CodecId chunk_codec,
                             std::span<const std::byte> stored,
                             std::span<std::byte> raw) const {
  DRX_CHECK(raw.size() == meta_.chunk_bytes());
  if (stored.empty()) {  // an unwritten chunk
    std::memset(raw.data(), 0, raw.size());
    return Status::ok();
  }
  static const obs::MetricId kDecodeUs =
      obs::histogram_id("core.codec.decode_us");
  Status st;
  {
    obs::ScopedTimer timer(kDecodeUs);
    st = codec::decode(chunk_codec, stored, checked_size(element_bytes()),
                       raw);
  }
  if (!st.is_ok() && obs::flight_enabled()) {
    // Same discipline as deferred write-back errors: capture the causal
    // context the moment damage is detected — the clean kCorrupt Status
    // still propagates to the caller.
    const Status ds = obs::dump_flight("corrupt-chunk");
    if (!ds.is_ok()) {
      DRX_LOG(kError) << "flight dump failed: " << ds.to_string();
    }
  }
  return st;
}

Status DrxFile::read_chunks_stored(std::uint64_t first_address,
                                   std::uint64_t count,
                                   std::vector<std::byte>& scratch,
                                   std::vector<StoredRef>& refs) {
  refs.clear();
  scratch.clear();
  if (count == 0) return Status::ok();
  const std::uint64_t cb = meta_.chunk_bytes();
  if (!compressed()) {
    scratch.resize(checked_size(checked_mul(count, cb)));
    DRX_RETURN_IF_ERROR(read_chunks(first_address, count, scratch));
    refs.reserve(checked_size(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      refs.push_back(StoredRef{codec::CodecId::kNone,
                               checked_size(checked_mul(i, cb)),
                               static_cast<std::uint32_t>(cb)});
    }
    return Status::ok();
  }
  if (first_address + count > meta_.chunk_table.size()) {
    return Status(ErrorCode::kOutOfRange, "chunk range out of range");
  }
  static const obs::MetricId kReads = obs::counter_id("core.chunk_reads");
  static const obs::MetricId kBatches =
      obs::counter_id("core.chunk_read_batches");
  static const obs::MetricId kBytes = obs::counter_id("core.bytes_read");
  obs::registry().counter(kReads).add(count);
  obs::registry().counter(kBatches).add();
  obs::registry().counter(kBytes).add(checked_mul(count, cb));
  if (obs::profile_enabled()) {
    for (std::uint64_t i = 0; i < count; ++i) {
      obs::profile_chunk(obs::ChunkOp::kRead, first_address + i,
                         checked_size(cb));
    }
  }

  // Slots of consecutive addresses are usually physically consecutive
  // (write_chunks allocates them in address order): fetch the whole byte
  // span in one request when it is dense enough, else fall back to one
  // request per chunk packed tight into the scratch buffer. Unwritten
  // slots take no part (their empty refs decode to zeros).
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  std::uint64_t hi_cap = 0;
  std::uint64_t live = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const ChunkSlot& s = meta_.chunk_table[first_address + i];
    if (s.unwritten()) continue;
    lo = std::min(lo, s.offset);
    hi = std::max(hi, s.offset + s.stored);
    hi_cap = std::max(hi_cap, s.offset + s.capacity);
    live += s.stored;
  }
  // Read through the last slot's capacity slack (when those bytes exist on
  // disk) so consecutive batch reads over a packed layout stay
  // head-contiguous — a streaming scan then costs one seek total, not one
  // per batch.
  refs.reserve(checked_size(count));
  if (live == 0) {  // every chunk unwritten: no I/O at all
    refs.assign(checked_size(count), StoredRef{});
    return Status::ok();
  }
  hi = std::max(hi, std::min(hi_cap, data_->size()));
  const std::uint64_t span_bytes = hi - lo;
  obs::ScopedSpan span("core.read_chunks_batch", "core",
                       checked_size(live));
  if (live * 2 >= span_bytes) {
    scratch.resize(checked_size(span_bytes));
    obs::StageTimer io(obs::Stage::kIoService);
    DRX_RETURN_IF_ERROR(data_->read_at(lo, scratch));
    for (std::uint64_t i = 0; i < count; ++i) {
      const ChunkSlot& s = meta_.chunk_table[first_address + i];
      refs.push_back(s.unwritten()
                         ? StoredRef{}
                         : StoredRef{static_cast<codec::CodecId>(s.codec),
                                     checked_size(s.offset - lo), s.stored});
    }
    return Status::ok();
  }
  scratch.resize(checked_size(live));
  std::size_t pos = 0;
  obs::StageTimer io(obs::Stage::kIoService);
  for (std::uint64_t i = 0; i < count; ++i) {
    const ChunkSlot& s = meta_.chunk_table[first_address + i];
    if (s.unwritten()) {
      refs.push_back(StoredRef{});
      continue;
    }
    DRX_RETURN_IF_ERROR(data_->read_at(
        s.offset, std::span<std::byte>(scratch.data() + pos, s.stored)));
    refs.push_back(StoredRef{static_cast<codec::CodecId>(s.codec), pos,
                             s.stored});
    pos += s.stored;
  }
  return Status::ok();
}

void DrxFile::sample_write_entropy(std::span<const std::byte> in) {
  // Every ~64th raw chunk write: trial-encode a bounded prefix so
  // drx_doctor can hint when DRX_COMPRESS would pay. Amortized cost is
  // a <=4KiB scan per 64 chunk writes.
  if ((write_sample_clock_++ & 63) != 0) return;
  static const obs::MetricId kSamples =
      obs::counter_id("core.codec.samples");
  static const obs::MetricId kRatio =
      obs::histogram_id("core.codec.sample_ratio_pct");
  const std::size_t w = checked_size(element_bytes());
  const std::size_t sample = std::min<std::size_t>(in.size(), 4096 / w * w);
  if (sample == 0) return;
  std::vector<std::byte> scratch(sample);
  const std::size_t n =
      codec::encode(codec::CodecId::kRle, in.first(sample), w, scratch);
  const std::uint64_t pct =
      n == 0 ? 100 : (static_cast<std::uint64_t>(n) * 100) / sample;
  obs::registry().counter(kSamples).add();
  obs::registry().histogram(kRatio).observe(pct);
}

}  // namespace drx::core
