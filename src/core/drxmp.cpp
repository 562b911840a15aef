#include "core/drxmp.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <future>
#include <numeric>

#include "io/async_pool.hpp"
#include "io/config.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/opctx.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace drx::core {

namespace {
std::string meta_name(const std::string& name) { return name + ".xmd"; }
std::string data_name(const std::string& name) { return name + ".xta"; }

/// Chunks per pipelined zone-read round; 0 disables pipelining (legacy
/// single-shot read). Derived from the async-engine knobs so the feature
/// stays off unless DRX_IO_THREADS is set.
std::uint64_t zone_read_batch() {
  if (io::io_threads() <= 0) return 0;
  const std::uint64_t depth = io::prefetch_depth();
  return depth > 0 ? depth : 8;
}
}  // namespace

Result<DrxMpFile> DrxMpFile::create(simpi::Comm& comm, pfs::Pfs& fs,
                                    const std::string& name,
                                    Shape element_bounds, Shape chunk_shape,
                                    const DrxFile::Options& options) {
  if (element_bounds.size() != chunk_shape.size() || element_bounds.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "element bounds and chunk shape must have equal rank >= 1");
  }
  // Compressed arrays are created (and written) with the serial DrxFile;
  // DRX-MP serves them read-only via open(). Only an explicit codec
  // request errors — the DRX_COMPRESS env knob deliberately does not
  // reach collective creation, so setting it can never break writers.
  if (options.codec.value_or(codec::CodecId::kNone) !=
      codec::CodecId::kNone) {
    return Status(ErrorCode::kUnsupported,
                  "DRX-MP serves compressed arrays read-only; create them "
                  "with the serial DrxFile");
  }
  Metadata meta(options.dtype, options.in_chunk_order,
                std::move(element_bounds), std::move(chunk_shape));

  // Rank 0 creates the metadata file; all ranks open the data file
  // collectively through MPI-IO.
  std::uint8_t ok = 1;
  if (comm.rank() == 0) {
    auto created = fs.create(meta_name(name), /*overwrite=*/true);
    if (!created.is_ok()) {
      ok = 0;
    } else {
      const std::vector<std::byte> image = meta.to_bytes();
      if (!created.value().write_at(0, image).is_ok()) ok = 0;
    }
  }
  comm.bcast_value(ok, 0);
  if (ok == 0) {
    return Status(ErrorCode::kIoError, "metadata creation failed");
  }

  auto data = mpio::File::open(comm, fs, data_name(name),
                               mpio::kModeRdWr | mpio::kModeCreate);
  if (!data.is_ok()) return data.status();
  DrxMpFile file(comm, fs, name, std::move(meta), std::move(data).value());
  // The initial allocation reads back as zeros: grow the file (the PFS
  // zero-fills) collectively.
  DRX_RETURN_IF_ERROR(file.data_.set_size(file.meta_.data_file_bytes()));
  return file;
}

Result<DrxMpFile> DrxMpFile::open(simpi::Comm& comm, pfs::Pfs& fs,
                                  const std::string& name) {
  // Rank 0 reads the .xmd image and replicates it to every process
  // (paper Sec. IV-A: "When a file is opened, the content of the meta-data
  // file is replicated in all participating processes").
  std::vector<std::byte> image;
  std::uint8_t ok = 1;
  if (comm.rank() == 0) {
    auto handle = fs.open(meta_name(name));
    if (!handle.is_ok()) {
      ok = 0;
    } else {
      image.resize(checked_size(handle.value().size()));
      if (!handle.value().read_at(0, image).is_ok()) ok = 0;
    }
  }
  comm.bcast_value(ok, 0);
  if (ok == 0) {
    return Status(ErrorCode::kNotFound, "cannot read metadata: " + name);
  }
  comm.bcast_vector(image, 0);
  DRX_ASSIGN_OR_RETURN(Metadata meta, Metadata::from_bytes(image));

  auto data = mpio::File::open(comm, fs, data_name(name), mpio::kModeRdWr);
  if (!data.is_ok()) return data.status();
  if (data.value().get_size() < meta.stored_data_bytes()) {
    return Status(ErrorCode::kCorrupt, ".xta smaller than metadata requires");
  }
  return DrxMpFile(comm, fs, name, std::move(meta), std::move(data).value());
}

Status DrxMpFile::close() {
  DRX_RETURN_IF_ERROR(flush_metadata());
  aggregate_metrics();
  return data_.close();
}

obs::MetricsSnapshot DrxMpFile::aggregate_metrics() {
  obs::ScopedSpan span("core.aggregate_metrics", "core");
  obs::MetricsSnapshot local = obs::registry().snapshot();
  const std::vector<std::byte> mine = local.serialize();
  std::vector<std::vector<std::byte>> all = comm_->gatherv_bytes(mine, 0);
  if (comm_->rank() != 0) return local;

  obs::MetricsSnapshot total;
  for (const std::vector<std::byte>& image : all) {
    auto snap = obs::MetricsSnapshot::deserialize(image);
    if (!snap.is_ok()) {
      // A malformed peer snapshot only degrades observability; keep the
      // ranks we could decode rather than failing the close.
      DRX_LOG_WARN << "dropping undecodable metrics snapshot: "
                   << snap.status().message();
      continue;
    }
    total.merge(snap.value());
  }
  obs::set_aggregated_snapshot(total);
  return total;
}

Status DrxMpFile::flush_metadata() {
  comm_->barrier();
  std::uint8_t ok = 1;
  if (comm_->rank() == 0) {
    auto handle = fs_->open(meta_name(name_));
    if (!handle.is_ok()) {
      ok = 0;
    } else {
      const std::vector<std::byte> image = meta_.to_bytes();
      if (!handle.value().truncate(0).is_ok() ||
          !handle.value().write_at(0, image).is_ok()) {
        ok = 0;
      }
    }
  }
  comm_->bcast_value(ok, 0);
  if (ok == 0) {
    return Status(ErrorCode::kIoError, "metadata flush failed");
  }
  return Status::ok();
}

Box DrxMpFile::zone_element_box(const Distribution& dist, int proc) const {
  const std::vector<Box> zones = dist.zones_of(proc);
  Box out{Index(rank(), 0), Index(rank(), 0)};
  if (zones.empty()) return out;
  DRX_CHECK_MSG(zones.size() == 1,
                "zone_element_box requires a BLOCK distribution");
  const Box& z = zones.front();
  for (std::size_t d = 0; d < rank(); ++d) {
    out.lo[d] = checked_mul(z.lo[d], meta_.chunk_shape[d]);
    out.hi[d] = std::min(checked_mul(z.hi[d], meta_.chunk_shape[d]),
                         meta_.element_bounds[d]);
    out.lo[d] = std::min(out.lo[d], out.hi[d]);
  }
  return out;
}

Status DrxMpFile::transfer_chunks(std::span<const Index> chunks,
                                  void* staging, bool collective,
                                  bool writing) {
  if (meta_.compressed()) {
    if (writing) {
      return Status(ErrorCode::kUnsupported,
                    "compressed DRX-MP arrays are read-only");
    }
    return transfer_chunks_compressed(chunks, staging, collective);
  }
  const std::uint64_t cb = chunk_bytes();
  const std::size_t n = chunks.size();
  obs::ScopedSpan span(writing ? "core.write_chunks" : "core.read_chunks",
                       "core", checked_mul(n, cb));

  // Sort by linear address: the file view must be monotonic, and ascending
  // address order is what makes zone I/O a near-sequential disk scan
  // (paper Sec. II-A).
  std::vector<std::uint64_t> addresses(n);
  for (std::size_t i = 0; i < n; ++i) {
    addresses[i] = meta_.mapping.address_of(chunks[i]);
  }
  if (obs::profile_enabled()) {
    // Heatmap layer: every chunk this rank's zone transfer touches,
    // attributed to the calling rank (the zone owner).
    const obs::ChunkOp op =
        writing ? obs::ChunkOp::kWrite : obs::ChunkOp::kRead;
    for (std::size_t i = 0; i < n; ++i) {
      obs::profile_chunk(op, addresses[i], cb);
    }
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return addresses[a] < addresses[b];
  });

  std::vector<std::uint64_t> ones(n, 1);
  std::vector<std::uint64_t> file_displs(n);
  std::vector<std::uint64_t> mem_displs(n);
  for (std::size_t i = 0; i < n; ++i) {
    file_displs[i] = checked_mul(addresses[order[i]], cb);
    mem_displs[i] = checked_mul(order[i], cb);
  }
  const simpi::Datatype chunk_type = simpi::Datatype::bytes(cb);
  const simpi::Datatype filetype =
      n == 0 ? simpi::Datatype::bytes(0)
             : simpi::Datatype::hindexed(ones, file_displs, chunk_type);
  const simpi::Datatype memtype =
      n == 0 ? simpi::Datatype::bytes(0)
             : simpi::Datatype::hindexed(ones, mem_displs, chunk_type);

  // With zero chunks a rank still participates in collective calls.
  data_.set_view(0, simpi::Datatype::bytes(1),
                 n == 0 ? simpi::Datatype::bytes(1) : filetype);
  const std::uint64_t count = n == 0 ? 0 : 1;
  if (writing) {
    return collective ? data_.write_at_all(0, staging, count, memtype)
                      : data_.write_at(0, staging, count, memtype);
  }
  return collective ? data_.read_at_all(0, staging, count, memtype)
                    : data_.read_at(0, staging, count, memtype);
}

Status DrxMpFile::transfer_chunks_compressed(std::span<const Index> chunks,
                                             void* staging, bool collective) {
  const std::uint64_t cb = chunk_bytes();
  const std::size_t n = chunks.size();
  obs::ScopedSpan span("core.read_chunks", "core", checked_mul(n, cb));

  std::vector<std::uint64_t> addresses(n);
  for (std::size_t i = 0; i < n; ++i) {
    addresses[i] = meta_.mapping.address_of(chunks[i]);
    if (addresses[i] >= meta_.chunk_table.size()) {
      return Status(ErrorCode::kOutOfRange, "chunk address out of range");
    }
  }
  if (obs::profile_enabled()) {
    for (std::size_t i = 0; i < n; ++i) {
      obs::profile_chunk(obs::ChunkOp::kRead, addresses[i], cb);
    }
  }

  // Unwritten chunks own no storage: they are zero-filled here and left
  // out of the view. Sort the rest by slot offset, not by linear address:
  // rewrites before the array reached DRX-MP may have relocated slots out
  // of address order, and the MPI file view must be monotonic in file
  // displacement.
  auto* out = static_cast<std::byte*>(staging);
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (meta_.chunk_table[addresses[i]].unwritten()) {
      std::memset(out + checked_mul(i, cb), 0, checked_size(cb));
    } else {
      order.push_back(i);
    }
  }
  const std::size_t stored_n = order.size();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return meta_.chunk_table[addresses[a]].offset <
           meta_.chunk_table[addresses[b]].offset;
  });

  // Byte-granular view built from the slot table: block i covers exactly
  // the stored bytes of the i-th slot in file-offset order, landing packed
  // in a local compressed buffer.
  std::vector<std::uint64_t> blocklens(stored_n);
  std::vector<std::uint64_t> file_displs(stored_n);
  std::vector<std::uint64_t> mem_displs(stored_n);
  std::uint64_t total_stored = 0;
  for (std::size_t i = 0; i < stored_n; ++i) {
    const ChunkSlot& slot = meta_.chunk_table[addresses[order[i]]];
    blocklens[i] = slot.stored;
    file_displs[i] = slot.offset;
    mem_displs[i] = total_stored;
    total_stored = checked_add(total_stored, slot.stored);
  }
  std::vector<std::byte> comp(checked_size(total_stored));

  const simpi::Datatype byte_type = simpi::Datatype::bytes(1);
  const simpi::Datatype filetype =
      stored_n == 0
          ? simpi::Datatype::bytes(0)
          : simpi::Datatype::hindexed(blocklens, file_displs, byte_type);
  const simpi::Datatype memtype =
      stored_n == 0
          ? simpi::Datatype::bytes(0)
          : simpi::Datatype::hindexed(blocklens, mem_displs, byte_type);

  // With nothing stored a rank still participates in collective calls.
  data_.set_view(0, byte_type, stored_n == 0 ? byte_type : filetype);
  const std::uint64_t count = stored_n == 0 ? 0 : 1;
  DRX_RETURN_IF_ERROR(collective
                          ? data_.read_at_all(0, comp.data(), count, memtype)
                          : data_.read_at(0, comp.data(), count, memtype));

  // Decode outside the collective so slow ranks never stall peers inside
  // the I/O call; each chunk lands at its caller-order staging position.
  static const obs::MetricId kDecodeUs =
      obs::histogram_id("core.codec.decode_us");
  for (std::size_t i = 0; i < stored_n; ++i) {
    const ChunkSlot& slot = meta_.chunk_table[addresses[order[i]]];
    Status st;
    {
      obs::ScopedTimer timer(kDecodeUs);
      st = codec::decode(
          static_cast<codec::CodecId>(slot.codec),
          std::span<const std::byte>(comp.data() + mem_displs[i],
                                     slot.stored),
          checked_size(meta_.element_bytes()),
          std::span<std::byte>(out + checked_mul(order[i], cb),
                               checked_size(cb)));
    }
    if (!st.is_ok()) {
      if (obs::flight_enabled()) {
        const Status ds = obs::dump_flight("corrupt-chunk");
        if (!ds.is_ok()) {
          DRX_LOG(kError) << "flight dump failed: " << ds.to_string();
        }
      }
      return st;
    }
  }
  return Status::ok();
}

Status DrxMpFile::read_chunks(std::span<const Index> chunks,
                              std::span<std::byte> staging, bool collective) {
  DRX_CHECK(staging.size() ==
            checked_mul(chunks.size(), chunk_bytes()));
  return transfer_chunks(chunks, staging.data(), collective,
                         /*writing=*/false);
}

Status DrxMpFile::write_chunks(std::span<const Index> chunks,
                               std::span<const std::byte> staging,
                               bool collective) {
  DRX_CHECK(staging.size() ==
            checked_mul(chunks.size(), chunk_bytes()));
  return transfer_chunks(chunks, const_cast<std::byte*>(staging.data()),
                         collective, /*writing=*/true);
}

Status DrxMpFile::read_my_zone(const Distribution& dist, MemoryOrder order,
                               std::span<std::byte> out, bool collective) {
  obs::OpScope op("op.read_my_zone");
  const Box box = zone_element_box(dist, comm_->rank());
  DRX_CHECK(out.size() == checked_mul(box.volume(), meta_.element_bytes()));

  std::vector<Index> chunks;
  for (const Box& z : dist.zones_of(comm_->rank())) {
    for_each_index(z, [&](const Index& c) { chunks.push_back(c); });
  }

  if (const std::uint64_t batch = zone_read_batch(); batch > 0) {
    return read_my_zone_pipelined(dist, order, out, collective, chunks, box,
                                  batch);
  }

  std::vector<std::byte> staging(
      checked_size(checked_mul(chunks.size(), chunk_bytes())));
  DRX_RETURN_IF_ERROR(read_chunks(chunks, staging, collective));

  obs::StageTimer copy(obs::Stage::kCopy);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const Box clip = chunk_space_.chunk_box(chunks[i]).intersect(box);
    if (clip.empty()) continue;
    plan_cache_->scatter(clip, box, order,
                         std::span<const std::byte>(staging).subspan(
                             checked_size(checked_mul(i, chunk_bytes())),
                             checked_size(chunk_bytes())),
                         out);
  }
  return Status::ok();
}

Status DrxMpFile::read_my_zone_pipelined(const Distribution& dist,
                                         MemoryOrder order,
                                         std::span<std::byte> out,
                                         bool collective,
                                         std::span<const Index> chunks,
                                         const Box& box, std::uint64_t batch) {
  const std::uint64_t cb = chunk_bytes();
  const auto n = static_cast<std::uint64_t>(chunks.size());

  // Collective rounds must line up across ranks. The distribution is
  // derived from replicated metadata, so every rank computes the same
  // global round count locally: the surplus rounds of chunk-poor ranks
  // participate with empty chunk lists.
  std::uint64_t rounds = ceil_div(n, batch);
  if (collective) {
    for (int r = 0; r < comm_->size(); ++r) {
      std::uint64_t count = 0;
      for (const Box& z : dist.zones_of(r)) count += z.volume();
      rounds = std::max(rounds, ceil_div(count, batch));
    }
  }
  if (rounds == 0) return Status::ok();  // every rank agrees: nothing to read
  obs::ScopedSpan span("core.zone_read_pipelined", "core",
                       checked_mul(n, cb));

  // One worker keeps the collective call order identical on every rank;
  // the pipeline depth is one round, double-buffered.
  io::AsyncIoPool pool({.threads = 1, .queue_capacity = 2});
  std::array<std::vector<std::byte>, 2> staging;

  const auto round_chunks = [&](std::uint64_t r) {
    const std::uint64_t begin = std::min(n, r * batch);
    const std::uint64_t end = std::min(n, (r + 1) * batch);
    return chunks.subspan(checked_size(begin), checked_size(end - begin));
  };
  const auto issue = [&](std::uint64_t r) {
    const std::span<const Index> part = round_chunks(r);
    std::vector<std::byte>& buf = staging[r % 2];
    buf.resize(checked_size(checked_mul(part.size(), cb)));
    return pool.submit_with_future(
        obs::current_op(),
        [this, part, bufspan = std::span<std::byte>(buf), collective] {
          return read_chunks(part, bufspan, collective);
        });
  };

  std::future<Status> inflight = issue(0);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    // Collective errors surface identically on every rank (the aggregator
    // result is allreduced), so breaking out of the round loop together
    // is deadlock-free.
    DRX_RETURN_IF_ERROR(inflight.get());
    if (r + 1 < rounds) inflight = issue(r + 1);
    const std::span<const Index> part = round_chunks(r);
    const std::span<const std::byte> buf(staging[r % 2]);
    obs::StageTimer copy(obs::Stage::kCopy);
    for (std::size_t i = 0; i < part.size(); ++i) {
      const Box clip = chunk_space_.chunk_box(part[i]).intersect(box);
      if (clip.empty()) continue;
      plan_cache_->scatter(
          clip, box, order,
          buf.subspan(checked_size(checked_mul(i, cb)), checked_size(cb)),
          out);
    }
  }
  return Status::ok();
}

Status DrxMpFile::write_my_zone(const Distribution& dist, MemoryOrder order,
                                std::span<const std::byte> in,
                                bool collective) {
  obs::OpScope op("op.write_my_zone");
  const Box box = zone_element_box(dist, comm_->rank());
  DRX_CHECK(in.size() == checked_mul(box.volume(), meta_.element_bytes()));

  std::vector<Index> chunks;
  for (const Box& z : dist.zones_of(comm_->rank())) {
    for_each_index(z, [&](const Index& c) { chunks.push_back(c); });
  }
  std::vector<std::byte> staging(
      checked_size(checked_mul(chunks.size(), chunk_bytes())), std::byte{0});
  {
    obs::StageTimer copy(obs::Stage::kCopy);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      const Box clip = chunk_space_.chunk_box(chunks[i]).intersect(box);
      if (clip.empty()) continue;
      plan_cache_->gather(clip, box, order,
                          std::span<std::byte>(staging).subspan(
                              checked_size(checked_mul(i, chunk_bytes())),
                              checked_size(chunk_bytes())),
                          in);
    }
  }
  return write_chunks(chunks, staging, collective);
}

Status DrxMpFile::read_box_all(const Box& box, MemoryOrder order,
                               std::span<std::byte> out) {
  obs::OpScope op("op.read_box_all");
  return read_box_impl(box, order, out, /*collective=*/true);
}

Status DrxMpFile::read_box_independent(const Box& box, MemoryOrder order,
                                       std::span<std::byte> out) {
  obs::OpScope op("op.read_box_independent");
  return read_box_impl(box, order, out, /*collective=*/false);
}

Status DrxMpFile::read_box_impl(const Box& box, MemoryOrder order,
                                std::span<std::byte> out, bool collective) {
  DRX_CHECK(box.rank() == rank());
  DRX_CHECK(out.size() == checked_mul(box.volume(), meta_.element_bytes()));
  for (std::size_t d = 0; d < rank(); ++d) {
    if (!box.empty() && box.hi[d] > meta_.element_bounds[d]) {
      return Status(ErrorCode::kOutOfRange, "box exceeds array bounds");
    }
  }

  std::vector<Index> chunks;
  if (!box.empty()) {
    for_each_index(chunk_space_.covering_chunks(box),
                   [&](const Index& c) { chunks.push_back(c); });
  }
  std::vector<std::byte> staging(
      checked_size(checked_mul(chunks.size(), chunk_bytes())));
  DRX_RETURN_IF_ERROR(read_chunks(chunks, staging, collective));

  obs::StageTimer copy(obs::Stage::kCopy);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const Box clip = chunk_space_.chunk_box(chunks[i]).intersect(box);
    if (clip.empty()) continue;
    plan_cache_->scatter(clip, box, order,
                         std::span<const std::byte>(staging).subspan(
                             checked_size(checked_mul(i, chunk_bytes())),
                             checked_size(chunk_bytes())),
                         out);
  }
  return Status::ok();
}

Status DrxMpFile::write_box_all(const Box& box, MemoryOrder order,
                                std::span<const std::byte> in) {
  obs::OpScope op("op.write_box_all");
  return write_box_impl(box, order, in, /*collective=*/true);
}

Status DrxMpFile::write_box_independent(const Box& box, MemoryOrder order,
                                        std::span<const std::byte> in) {
  obs::OpScope op("op.write_box_independent");
  return write_box_impl(box, order, in, /*collective=*/false);
}

Status DrxMpFile::write_box_impl(const Box& box, MemoryOrder order,
                                 std::span<const std::byte> in,
                                 bool collective) {
  DRX_CHECK(box.rank() == rank());
  DRX_CHECK(in.size() == checked_mul(box.volume(), meta_.element_bytes()));
  for (std::size_t d = 0; d < rank(); ++d) {
    if (!box.empty() && box.hi[d] > meta_.element_bounds[d]) {
      return Status(ErrorCode::kOutOfRange, "box exceeds array bounds");
    }
  }

  std::vector<Index> chunks;
  if (!box.empty()) {
    for_each_index(chunk_space_.covering_chunks(box),
                   [&](const Index& c) { chunks.push_back(c); });
  }
  std::vector<std::byte> staging(
      checked_size(checked_mul(chunks.size(), chunk_bytes())), std::byte{0});

  // Boundary chunks not fully covered by the box (nor by the slack beyond
  // the array bounds) must be read-modify-written. The read is independent:
  // different ranks have different RMW sets, so it cannot be collective.
  const Box live{Index(rank(), 0), meta_.element_bounds};
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const Box cbox = chunk_space_.chunk_box(chunks[i]);
    const Box covered = cbox.intersect(box);
    const Box alive = cbox.intersect(live);
    const bool fully_covered = covered == alive;
    auto slot = std::span<std::byte>(staging).subspan(
        checked_size(checked_mul(i, chunk_bytes())),
        checked_size(chunk_bytes()));
    if (!fully_covered) {
      Index single[] = {chunks[i]};
      DRX_RETURN_IF_ERROR(
          read_chunks(std::span<const Index>(single, 1), slot,
                      /*collective=*/false));
    }
    if (!covered.empty()) {
      obs::StageTimer copy(obs::Stage::kCopy);
      plan_cache_->gather(covered, box, order, slot, in);
    }
  }
  return write_chunks(chunks, staging, collective);
}

Status DrxMpFile::extend_all(std::size_t dim, std::uint64_t delta) {
  obs::OpScope op("op.extend_all");
  if (dim >= rank()) {
    return Status(ErrorCode::kInvalidArgument, "dimension out of range");
  }
  if (meta_.compressed()) {
    // set_size(data_file_bytes) assumes the dense layout; growing a slot
    // table collectively is out of scope for the read-only MP path.
    return Status(ErrorCode::kUnsupported,
                  "compressed DRX-MP arrays are read-only");
  }
  comm_->barrier();
  if (delta > 0) {
    // Deterministic, identical update on every rank keeps the replicated
    // metadata consistent without communication.
    if (meta_.extend_elements(dim, delta).has_value()) {
      DRX_RETURN_IF_ERROR(data_.set_size(meta_.data_file_bytes()));
    }
  }
  return flush_metadata();
}

GlobalAccessor::GlobalAccessor(simpi::Comm& comm, const Metadata& meta,
                               const Distribution& dist, MemoryOrder order,
                               std::span<std::byte> zone)
    : comm_(&comm),
      meta_(&meta),
      dist_(dist),
      order_(order),
      chunk_space_(meta.chunk_space()),
      window_(comm, zone) {
  // Precompute every rank's clipped zone element box (identical on all
  // ranks — derived from replicated metadata).
  zone_boxes_.reserve(static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r) {
    const std::vector<Box> zones = dist_.zones_of(r);
    Box out{Index(meta.rank(), 0), Index(meta.rank(), 0)};
    if (!zones.empty()) {
      DRX_CHECK_MSG(zones.size() == 1,
                    "GlobalAccessor requires a BLOCK distribution");
      for (std::size_t d = 0; d < meta.rank(); ++d) {
        out.lo[d] = checked_mul(zones[0].lo[d], meta.chunk_shape[d]);
        out.hi[d] = std::min(checked_mul(zones[0].hi[d], meta.chunk_shape[d]),
                             meta.element_bounds[d]);
        out.lo[d] = std::min(out.lo[d], out.hi[d]);
      }
    }
    zone_boxes_.push_back(std::move(out));
  }
  const Box& mine = zone_boxes_[static_cast<std::size_t>(comm.rank())];
  DRX_CHECK_MSG(zone.size() ==
                    checked_mul(mine.volume(), meta.element_bytes()),
                "zone buffer size does not match the zone element box");
}

int GlobalAccessor::owner_of(std::span<const std::uint64_t> element) const {
  return dist_.owner_of(chunk_space_.chunk_of(element));
}

std::pair<int, std::uint64_t> GlobalAccessor::locate(
    std::span<const std::uint64_t> element, std::uint64_t esize) const {
  DRX_CHECK(esize == meta_->element_bytes());
  for (std::size_t d = 0; d < meta_->rank(); ++d) {
    DRX_CHECK_MSG(element[d] < meta_->element_bounds[d],
                  "element index out of bounds");
  }
  const int target = owner_of(element);
  const Box& box = zone_boxes_[static_cast<std::size_t>(target)];
  Index rel(meta_->rank());
  for (std::size_t d = 0; d < meta_->rank(); ++d) {
    rel[d] = element[d] - box.lo[d];
  }
  const std::uint64_t linear = linearize(rel, box.shape(), order_);
  return {target, checked_mul(linear, esize)};
}

}  // namespace drx::core
