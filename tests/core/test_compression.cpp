// Compressed-array end-to-end tests (docs/COMPRESSION.md): the v2 slot
// table round-trips through create/flush/open, every DrxFile access path
// (element, box, chunk, cache, prefetch) sees the logical bytes, damage
// surfaces as a clean kCorrupt with a flight dump, DRX_COMPRESS=off
// output stays byte-identical to the legacy v1 format, a cache flush
// costs one storage request per contiguous run of slots, and chunks
// that were never written store and read nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "codec/codec.hpp"
#include "core/chunk_cache.hpp"
#include "core/drx_file.hpp"
#include "core/drxmp.hpp"
#include "obs/flight.hpp"
#include "simpi/runtime.hpp"
#include "util/rng.hpp"

namespace drx::core {
namespace {

DrxFile::Options compressed_opts(codec::CodecId c = codec::CodecId::kRle,
                                 ElementType dtype = ElementType::kDouble) {
  DrxFile::Options o;
  o.dtype = dtype;
  o.codec = c;
  return o;
}

DrxFile make_compressed(Shape bounds, Shape chunk,
                        DrxFile::Options opts = compressed_opts()) {
  auto f = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                           std::make_unique<pfs::MemStorage>(),
                           std::move(bounds), std::move(chunk), opts);
  EXPECT_TRUE(f.is_ok()) << f.status();
  return std::move(f).value();
}

std::unique_ptr<pfs::MemStorage> copy_of(pfs::Storage& src) {
  auto dst = std::make_unique<pfs::MemStorage>();
  std::vector<std::byte> buf(static_cast<std::size_t>(src.size()));
  EXPECT_TRUE(src.read_at(0, buf).is_ok());
  EXPECT_TRUE(dst->write_at(0, buf).is_ok());
  return dst;
}

/// Row-constant values: long in-chunk runs, so RLE genuinely compresses.
double row_value(const Index& idx) { return 10.0 + static_cast<double>(idx[0]); }

TEST(Compression, CreateIsCompressedAndZeroed) {
  // Chunks well above the 64-byte slot-capacity granularity, so the
  // compression win is visible in the .xta size.
  DrxFile f = make_compressed(Shape{32, 32}, Shape{8, 8});
  EXPECT_TRUE(f.compressed());
  EXPECT_EQ(f.metadata().codec, codec::CodecId::kRle);
  EXPECT_EQ(f.metadata().chunk_table.size(), f.metadata().mapping.total_chunks());
  // Zero chunks compress hard: the .xta must be far below the dense size.
  EXPECT_LT(f.data_storage().size(), f.metadata().data_file_bytes() / 4);
  for_each_index(Box{{0, 0}, {32, 32}}, [&](const Index& idx) {
    ASSERT_EQ(f.get<double>(idx).value(), 0.0);
  });
}

TEST(Compression, BoxIoAndReopenRoundTrip) {
  std::unique_ptr<pfs::MemStorage> meta_copy, data_copy;
  std::uint64_t dense_bytes = 0;
  {
    DrxFile f = make_compressed(Shape{12, 10}, Shape{3, 5});
    std::vector<double> buf(12 * 10);
    for_each_index(Box{{0, 0}, {12, 10}}, [&](const Index& idx) {
      buf[static_cast<std::size_t>(idx[0] * 10 + idx[1])] = row_value(idx);
    });
    ASSERT_TRUE(f.write_box(Box{{0, 0}, {12, 10}}, MemoryOrder::kRowMajor,
                            std::as_bytes(std::span<const double>(buf)))
                    .is_ok());
    ASSERT_TRUE(f.flush().is_ok());
    dense_bytes = f.metadata().data_file_bytes();
    EXPECT_LT(f.metadata().stored_live_bytes(), dense_bytes / 2)
        << "row-constant data should compress at least 2x";
    meta_copy = copy_of(f.meta_storage());
    data_copy = copy_of(f.data_storage());
  }
  auto reopened = DrxFile::open(std::move(meta_copy), std::move(data_copy));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  EXPECT_TRUE(reopened.value().compressed());
  std::vector<double> back(12 * 10);
  ASSERT_TRUE(reopened.value()
                  .read_box(Box{{0, 0}, {12, 10}}, MemoryOrder::kRowMajor,
                            std::as_writable_bytes(std::span<double>(back)))
                  .is_ok());
  for_each_index(Box{{0, 0}, {12, 10}}, [&](const Index& idx) {
    ASSERT_EQ(back[static_cast<std::size_t>(idx[0] * 10 + idx[1])],
              row_value(idx));
  });
}

TEST(Compression, ElementRmwAcrossChunks) {
  DrxFile f = make_compressed(Shape{6, 6}, Shape{2, 2});
  for_each_index(Box{{0, 0}, {6, 6}}, [&](const Index& idx) {
    ASSERT_TRUE(f.set<double>(idx, row_value(idx)).is_ok());
  });
  for_each_index(Box{{0, 0}, {6, 6}}, [&](const Index& idx) {
    ASSERT_EQ(f.get<double>(idx).value(), row_value(idx));
  });
}

TEST(Compression, ExtendPreservesDataAndZerosNewRegion) {
  DrxFile f = make_compressed(Shape{4, 4}, Shape{2, 2});
  for_each_index(Box{{0, 0}, {4, 4}}, [&](const Index& idx) {
    ASSERT_TRUE(f.set<double>(idx, row_value(idx)).is_ok());
  });
  ASSERT_TRUE(f.extend(1, 4).is_ok());
  ASSERT_TRUE(f.extend(0, 2).is_ok());
  EXPECT_EQ(f.metadata().chunk_table.size(),
            f.metadata().mapping.total_chunks());
  for_each_index(Box{{0, 0}, {6, 8}}, [&](const Index& idx) {
    const double expect =
        (idx[0] < 4 && idx[1] < 4) ? row_value(idx) : 0.0;
    ASSERT_EQ(f.get<double>(idx).value(), expect);
  });
}

TEST(Compression, BitpackEndToEndOnIntegers) {
  DrxFile::Options o;
  o.dtype = ElementType::kInt64;
  o.codec = codec::CodecId::kBitPack;
  DrxFile f = make_compressed(Shape{16, 16}, Shape{4, 4}, o);
  std::vector<std::int64_t> buf(16 * 16);
  for_each_index(Box{{0, 0}, {16, 16}}, [&](const Index& idx) {
    // Small range (0..30): packs to ~5 bits per 64-bit element.
    buf[static_cast<std::size_t>(idx[0] * 16 + idx[1])] =
        static_cast<std::int64_t>(idx[0] + idx[1]);
  });
  ASSERT_TRUE(f.write_box(Box{{0, 0}, {16, 16}}, MemoryOrder::kRowMajor,
                          std::as_bytes(std::span<const std::int64_t>(buf)))
                  .is_ok());
  ASSERT_TRUE(f.flush().is_ok());
  EXPECT_LT(f.metadata().stored_live_bytes(),
            f.metadata().data_file_bytes() / 4)
      << "narrow integers should bit-pack at least 4x";
  auto reopened = DrxFile::open(copy_of(f.meta_storage()),
                                copy_of(f.data_storage()));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  std::vector<std::int64_t> back(16 * 16);
  ASSERT_TRUE(reopened.value()
                  .read_box(Box{{0, 0}, {16, 16}}, MemoryOrder::kRowMajor,
                            std::as_writable_bytes(std::span<std::int64_t>(back)))
                  .is_ok());
  EXPECT_EQ(back, buf);
}

TEST(Compression, SlotRelocationKeepsDataIntact) {
  SplitMix64 rng(0x5107);
  DrxFile f = make_compressed(Shape{8, 8}, Shape{4, 4});
  // Pass 1: constant chunks (tiny slots).
  for_each_index(Box{{0, 0}, {8, 8}}, [&](const Index& idx) {
    ASSERT_TRUE(f.set<double>(idx, 1.0).is_ok());
  });
  const std::uint64_t end_before = f.metadata().data_end;
  // Pass 2: incompressible chunks — stored size jumps past each slot's
  // capacity, forcing the relocate-and-leak path.
  std::vector<double> noisy(8 * 8);
  for (double& v : noisy) {
    v = static_cast<double>(rng.next()) * 1e-3;
  }
  ASSERT_TRUE(f.write_box(Box{{0, 0}, {8, 8}}, MemoryOrder::kRowMajor,
                          std::as_bytes(std::span<const double>(noisy)))
                  .is_ok());
  ASSERT_TRUE(f.flush().is_ok());
  EXPECT_GT(f.metadata().data_end, end_before) << "expected slot relocation";

  auto reopened = DrxFile::open(copy_of(f.meta_storage()),
                                copy_of(f.data_storage()));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  for_each_index(Box{{0, 0}, {8, 8}}, [&](const Index& idx) {
    ASSERT_EQ(reopened.value().get<double>(idx).value(),
              noisy[static_cast<std::size_t>(idx[0] * 8 + idx[1])]);
  });
}

TEST(Compression, CorruptChunkIsCleanErrorAndDumpsFlight) {
  const std::string dump =
      (std::filesystem::temp_directory_path() / "drx-corrupt-flight.json")
          .string();
  std::filesystem::remove(dump);
  obs::set_flight_path(dump);

  DrxFile::Options o;
  o.dtype = ElementType::kInt64;
  o.codec = codec::CodecId::kBitPack;
  DrxFile f = make_compressed(Shape{8, 8}, Shape{4, 4}, o);
  for_each_index(Box{{0, 0}, {8, 8}}, [&](const Index& idx) {
    ASSERT_TRUE(
        f.set<std::int64_t>(idx, static_cast<std::int64_t>(idx[0] + idx[1]))
            .is_ok());
  });
  ASSERT_TRUE(f.flush().is_ok());

  // An implausible bitpack width in slot 0's header is deterministically
  // corrupt, whatever the payload.
  const ChunkSlot& slot = f.metadata().chunk_table[0];
  ASSERT_GT(slot.stored, 0u);
  const std::byte bad[1] = {std::byte{0xFF}};
  ASSERT_TRUE(f.data_storage().write_at(slot.offset, bad).is_ok());

  std::vector<std::byte> chunk(checked_size(f.chunk_bytes()));
  const Status st = f.read_chunk(0, chunk);
  EXPECT_EQ(st.code(), ErrorCode::kCorrupt) << st;
  EXPECT_TRUE(std::filesystem::exists(dump))
      << "corrupt chunk must trigger a flight dump";
  std::filesystem::remove(dump);
  obs::set_flight_path("drx-flight.json");
}

TEST(Compression, OffIsByteIdenticalToLegacy) {
  // Simulate DRX_COMPRESS=rle being set globally: an explicit
  // Options::codec = kNone must still produce the legacy v1 format,
  // byte-for-byte, and such files must reopen.
  const codec::CodecId before = codec::default_codec();
  codec::set_default_codec(codec::CodecId::kRle);

  const auto build = [](std::optional<codec::CodecId> c) {
    DrxFile::Options o;
    o.dtype = ElementType::kDouble;
    o.codec = c;
    auto f = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                             std::make_unique<pfs::MemStorage>(),
                             Shape{6, 4}, Shape{2, 2}, o);
    EXPECT_TRUE(f.is_ok()) << f.status();
    for_each_index(Box{{0, 0}, {6, 4}}, [&](const Index& idx) {
      EXPECT_TRUE(f.value().set<double>(idx, row_value(idx)).is_ok());
    });
    EXPECT_TRUE(f.value().flush().is_ok());
    return std::move(f).value();
  };

  DrxFile off = build(codec::CodecId::kNone);
  EXPECT_FALSE(off.compressed());

  codec::set_default_codec(codec::CodecId::kNone);
  DrxFile legacy = build(std::nullopt);  // env off: the pre-codec default
  codec::set_default_codec(before);
  EXPECT_FALSE(legacy.compressed());

  const auto bytes_of = [](pfs::Storage& s) {
    std::vector<std::byte> buf(static_cast<std::size_t>(s.size()));
    EXPECT_TRUE(s.read_at(0, buf).is_ok());
    return buf;
  };
  EXPECT_EQ(bytes_of(off.meta_storage()), bytes_of(legacy.meta_storage()));
  EXPECT_EQ(bytes_of(off.data_storage()), bytes_of(legacy.data_storage()));
  // Dense layout: the data file is exactly chunks x chunk_bytes.
  EXPECT_EQ(off.data_storage().size(), off.metadata().data_file_bytes());

  // "Old" (v1) files open fine under the codec-aware reader.
  auto reopened = DrxFile::open(copy_of(off.meta_storage()),
                                copy_of(off.data_storage()));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  EXPECT_FALSE(reopened.value().compressed());
  EXPECT_EQ(reopened.value().get<double>(Index{5, 3}).value(),
            row_value(Index{5, 3}));
}

TEST(Compression, CacheRoundTripAndPrefetch) {
  DrxFile file = make_compressed(Shape{8, 8}, Shape{2, 2});
  const std::uint64_t chunks = file.metadata().mapping.total_chunks();
  {
    ChunkCache cache(file, 4, ChunkCache::AsyncOptions{2, 4});
    ASSERT_TRUE(cache.async());
    for (std::uint64_t q = 0; q < chunks; ++q) {
      auto p = cache.pin(q);
      ASSERT_TRUE(p.is_ok()) << p.status();
      const double v = static_cast<double>(100 + q);
      for (std::size_t i = 0; i < p.value().size() / sizeof(double); ++i) {
        std::memcpy(p.value().data() + i * sizeof(double), &v, sizeof(v));
      }
      cache.unpin(q, /*dirty=*/true);
    }
    ASSERT_TRUE(cache.flush().is_ok());
  }
  // Fresh cache: prefetch the whole range, then pins must see the data.
  ChunkCache cache(file, 16, ChunkCache::AsyncOptions{2, 8});
  cache.prefetch(0, chunks);
  for (std::uint64_t q = 0; q < chunks; ++q) {
    auto p = cache.pin(q, /*writable=*/false);
    ASSERT_TRUE(p.is_ok()) << p.status();
    double v = 0;
    std::memcpy(&v, p.value().data(), sizeof(v));
    EXPECT_EQ(v, static_cast<double>(100 + q));
    cache.unpin(q, /*dirty=*/false, /*writable=*/false);
  }
}

TEST(Compression, WriteBehindCodecStress) {
  // Satellite-6 regression: codec work runs outside every shard lock and
  // outside io_mu_, so concurrent writers + write-behind evictions must
  // neither deadlock nor corrupt data. Run under TSan to prove the locking
  // claim; the data check below proves correctness either way.
  DrxFile file = make_compressed(Shape{16, 16}, Shape{2, 2});
  const std::uint64_t chunks = file.metadata().mapping.total_chunks();
  constexpr int kThreads = 4;
  {
    // Tiny capacity: nearly every pin evicts, forcing write-behind.
    ChunkCache cache(file, 4, ChunkCache::AsyncOptions{2, 2});
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        // Disjoint chunk ranges keep the final contents deterministic.
        SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
        const std::uint64_t lo = chunks / kThreads * static_cast<std::uint64_t>(t);
        const std::uint64_t hi =
            t == kThreads - 1 ? chunks
                              : chunks / kThreads * static_cast<std::uint64_t>(t + 1);
        for (int iter = 0; iter < 200; ++iter) {
          const std::uint64_t q = rng.next_in(lo, hi - 1);
          auto p = cache.pin(q);
          ASSERT_TRUE(p.is_ok()) << p.status();
          const double v = static_cast<double>(q);
          for (std::size_t i = 0; i < p.value().size() / sizeof(double);
               ++i) {
            std::memcpy(p.value().data() + i * sizeof(double), &v,
                        sizeof(v));
          }
          cache.unpin(q, /*dirty=*/true);
        }
        for (std::uint64_t q = lo; q < hi; ++q) {
          auto p = cache.pin(q);
          ASSERT_TRUE(p.is_ok()) << p.status();
          const double v = static_cast<double>(q);
          std::memcpy(p.value().data(), &v, sizeof(v));
          cache.unpin(q, /*dirty=*/true);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    ASSERT_TRUE(cache.flush().is_ok());
  }
  std::vector<std::byte> chunk(checked_size(file.chunk_bytes()));
  for (std::uint64_t q = 0; q < chunks; ++q) {
    ASSERT_TRUE(file.read_chunk(q, chunk).is_ok());
    double v = 0;
    std::memcpy(&v, chunk.data(), sizeof(v));
    ASSERT_EQ(v, static_cast<double>(q)) << "chunk " << q;
  }
}

// ---- batched write-back and unwritten slots --------------------------------

pfs::MemStorage& mem(pfs::Storage& s) {
  return static_cast<pfs::MemStorage&>(s);
}

/// Pins chunks [0, n), fills each with `value + q` and unpins it dirty.
void dirty_chunks(ChunkCache& cache, std::uint64_t n, double value) {
  for (std::uint64_t q = 0; q < n; ++q) {
    auto p = cache.pin(q);
    ASSERT_TRUE(p.is_ok()) << p.status();
    const double v = value + static_cast<double>(q);
    for (std::size_t i = 0; i < p.value().size() / sizeof(double); ++i) {
      std::memcpy(p.value().data() + i * sizeof(double), &v, sizeof(v));
    }
    cache.unpin(q, /*dirty=*/true);
  }
}

std::uint64_t round_up_64(std::uint64_t n) { return (n + 63) / 64 * 64; }

TEST(Compression, CachedFlushPersistsSlotTable) {
  // One 64x64 bit-packed chunk written through a CachedDrxFile: after
  // flush() the storages alone must reopen to the written values.
  for (const int io_threads : {0, 2}) {
    DrxFile f = make_compressed(
        Shape{64, 64}, Shape{64, 64},
        compressed_opts(codec::CodecId::kBitPack, ElementType::kInt32));
    std::vector<std::int32_t> buf(64 * 64);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::int32_t>(i);
    }
    CachedDrxFile cached(f, 4, ChunkCache::AsyncOptions{io_threads, 0, 1});
    const Box all{{0, 0}, {64, 64}};
    ASSERT_TRUE(
        cached
            .write_box(all, MemoryOrder::kRowMajor,
                       std::as_bytes(std::span<const std::int32_t>(buf)))
            .is_ok());
    ASSERT_TRUE(cached.flush().is_ok());
    auto reopened = DrxFile::open(copy_of(f.meta_storage()),
                                  copy_of(f.data_storage()));
    ASSERT_TRUE(reopened.is_ok()) << reopened.status();
    std::vector<std::int32_t> back(64 * 64);
    ASSERT_TRUE(
        reopened.value()
            .read_box(all, MemoryOrder::kRowMajor,
                      std::as_writable_bytes(std::span<std::int32_t>(back)))
            .is_ok());
    EXPECT_EQ(back, buf) << "io_threads " << io_threads;
  }
}

TEST(Compression, OnlyTheAllZeroSlotMayStoreNothing) {
  Metadata m(ElementType::kDouble, MemoryOrder::kRowMajor, Shape{4, 4},
             Shape{2, 2});
  m.codec = codec::CodecId::kRle;
  m.chunk_table.resize(checked_size(m.mapping.total_chunks()));
  m.chunk_table[0] = ChunkSlot{0, 20, 64, static_cast<std::uint8_t>(m.codec)};
  m.data_end = 128;
  auto back = Metadata::from_bytes(m.to_bytes());
  ASSERT_TRUE(back.is_ok()) << back.status();
  EXPECT_EQ(back.value(), m);
  EXPECT_FALSE(back.value().chunk_table[0].unwritten());
  EXPECT_TRUE(back.value().chunk_table[1].unwritten());

  const auto rle = static_cast<std::uint8_t>(codec::CodecId::kRle);
  for (const ChunkSlot bad :
       {ChunkSlot{64, 0, 64, rle}, ChunkSlot{0, 0, 64, rle},
        ChunkSlot{0, 0, 0, rle}, ChunkSlot{64, 0, 0, 0},
        ChunkSlot{0, 0, 64, 0}}) {
    Metadata broken = m;
    broken.chunk_table[1] = bad;
    const auto r = Metadata::from_bytes(broken.to_bytes());
    ASSERT_FALSE(r.is_ok()) << "slot {" << bad.offset << "," << bad.stored
                            << "," << bad.capacity << "," << int{bad.codec}
                            << "} must be rejected";
    EXPECT_EQ(r.status().code(), ErrorCode::kCorrupt);
  }
}

TEST(Compression, ExtendWritesNoDataBytes) {
  DrxFile f = make_compressed(Shape{4, 4}, Shape{2, 2});
  for_each_index(Box{{0, 0}, {4, 4}}, [&](const Index& idx) {
    ASSERT_TRUE(f.set<double>(idx, row_value(idx)).is_ok());
  });
  const std::uint64_t first_new = f.metadata().mapping.total_chunks();
  const pfs::IoStats before = mem(f.data_storage()).stats();
  ASSERT_TRUE(f.extend(0, 6).is_ok());
  ASSERT_TRUE(f.extend(1, 2).is_ok());
  const pfs::IoStats extended = mem(f.data_storage()).stats() - before;
  EXPECT_EQ(extended.write_requests, 0u);
  EXPECT_EQ(extended.bytes_written, 0u);
  const std::uint64_t total = f.metadata().mapping.total_chunks();
  ASSERT_GT(total, first_new);
  for (std::uint64_t q = first_new; q < total; ++q) {
    EXPECT_TRUE(f.metadata().chunk_table[q].unwritten()) << "chunk " << q;
  }

  // Never-written chunks read as zeros with no I/O, through the direct
  // chunk path and through cache read-ahead.
  const std::uint64_t reads_before =
      mem(f.data_storage()).stats().read_requests;
  std::vector<std::byte> chunk(checked_size(f.chunk_bytes()), std::byte{1});
  ASSERT_TRUE(f.read_chunk(total - 1, chunk).is_ok());
  EXPECT_TRUE(std::all_of(chunk.begin(), chunk.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
  {
    ChunkCache cache(f, 16, ChunkCache::AsyncOptions{2, 8, 1});
    cache.prefetch(first_new, total - first_new);
    for (std::uint64_t q = first_new; q < total; ++q) {
      auto p = cache.pin(q, /*writable=*/false);
      ASSERT_TRUE(p.is_ok()) << p.status();
      EXPECT_TRUE(std::all_of(p.value().begin(), p.value().end(),
                              [](std::byte b) { return b == std::byte{0}; }));
      cache.unpin(q, /*dirty=*/false, /*writable=*/false);
    }
  }
  EXPECT_EQ(mem(f.data_storage()).stats().read_requests, reads_before);
  for_each_index(Box{{0, 0}, {10, 6}}, [&](const Index& idx) {
    const double expect = (idx[0] < 4 && idx[1] < 4) ? row_value(idx) : 0.0;
    ASSERT_EQ(f.get<double>(idx).value(), expect);
  });
}

/// True when chunks [0, n) hash to more than one of the cache's shards,
/// so a flush that batched per shard would send more than one batch.
bool spans_shards(const ChunkCache& cache, std::uint64_t n) {
  for (std::uint64_t q = 1; q < n; ++q) {
    if (cache.shard_index(q) != cache.shard_index(0)) return true;
  }
  return false;
}

/// N adjacent dirty chunks cost exactly one data write request, for
/// compressed and raw arrays, sync and async caches, on a first
/// allocation and on an in-place rewrite. Capacity is 2N frames per
/// shard, so no chunk is evicted (and written) before the flush.
void expect_flush_is_one_write_request(int shards) {
  constexpr std::uint64_t kN = 8;
  for (const bool compressed : {true, false}) {
    for (const int io_threads : {0, 2}) {
      DrxFile::Options o = compressed_opts();
      if (!compressed) o.codec = codec::CodecId::kNone;
      // One row of kN chunks: linear addresses 0 .. kN-1.
      DrxFile f = make_compressed(Shape{4, 4 * kN}, Shape{4, 4}, o);
      ASSERT_EQ(f.metadata().mapping.total_chunks(), kN);
      const std::string what = std::string(compressed ? "compressed" : "raw") +
                               ", io_threads " + std::to_string(io_threads) +
                               ", shards " + std::to_string(shards);
      {
        ChunkCache cache(f, 2 * kN * static_cast<std::size_t>(shards),
                         ChunkCache::AsyncOptions{io_threads, 0, shards});
        ASSERT_EQ(cache.shard_count(), static_cast<std::size_t>(shards));
        ASSERT_EQ(spans_shards(cache, kN), shards > 1) << what;
        // Round 0 allocates every slot; round 1 rewrites them in place.
        for (int round = 0; round < 2; ++round) {
          dirty_chunks(cache, kN, 100.0 * (round + 1));
          const pfs::IoStats& io = mem(f.data_storage()).stats();
          const std::uint64_t before = io.write_requests;
          ASSERT_TRUE(cache.flush().is_ok());
          EXPECT_EQ(io.write_requests - before, 1u)
              << what << ", round " << round;
        }
        EXPECT_EQ(cache.stats().evictions, 0u) << what;
      }
      std::vector<std::byte> chunk(checked_size(f.chunk_bytes()));
      for (std::uint64_t q = 0; q < kN; ++q) {
        ASSERT_TRUE(f.read_chunk(q, chunk).is_ok());
        double v = 0;
        std::memcpy(&v, chunk.data() + chunk.size() - sizeof(v), sizeof(v));
        EXPECT_EQ(v, 200.0 + static_cast<double>(q)) << what;
      }
    }
  }
}

TEST(Compression, FlushOfAdjacentDirtyChunksIsOneWriteRequest) {
  expect_flush_is_one_write_request(1);
}

TEST(Compression, FlushOfAdjacentDirtyChunksIsOneWriteRequestOn8Shards) {
  // The shards split addresses by hash; one flush still sends one batch.
  expect_flush_is_one_write_request(8);
}

/// Slots one flush hands out are packed back to back in address order:
/// tight on first allocation, with headroom when every chunk outgrows
/// its slot and relocates at once — and the relocation is one request.
void expect_relocations_in_address_order(int shards, int io_threads) {
  constexpr std::uint64_t kN = 8;
  const std::string what = "shards " + std::to_string(shards) +
                           ", io_threads " + std::to_string(io_threads);
  DrxFile f = make_compressed(
      Shape{8, 8 * kN}, Shape{8, 8},
      compressed_opts(codec::CodecId::kBitPack, ElementType::kInt64));
  const std::uint64_t cb = f.chunk_bytes();
  ChunkCache cache(f, 2 * kN * static_cast<std::size_t>(shards),
                   ChunkCache::AsyncOptions{io_threads, 0, shards});
  ASSERT_EQ(spans_shards(cache, kN), shards > 1) << what;
  const auto fill = [&](std::int64_t spread) {
    // Reverse address order: the batch must sort, not trust its input.
    for (std::uint64_t q = kN; q-- > 0;) {
      auto p = cache.pin(q);
      ASSERT_TRUE(p.is_ok()) << p.status();
      const std::size_t n = p.value().size() / sizeof(std::int64_t);
      for (std::size_t i = 0; i < n; ++i) {
        const auto v = static_cast<std::int64_t>(q) +
                       static_cast<std::int64_t>(i * 37) % (spread + 1);
        std::memcpy(p.value().data() + i * sizeof(v), &v, sizeof(v));
      }
      cache.unpin(q, /*dirty=*/true);
    }
  };
  // Narrow values: first allocations are tight (stored rounded up to 64).
  fill(0);
  ASSERT_TRUE(cache.flush().is_ok());
  for (std::uint64_t q = 0; q < kN; ++q) {
    const ChunkSlot& slot = f.metadata().chunk_table[q];
    EXPECT_EQ(slot.capacity, std::min(cb, round_up_64(slot.stored)))
        << what << ", chunk " << q;
    if (q > 0) {
      const ChunkSlot& prev = f.metadata().chunk_table[q - 1];
      EXPECT_EQ(slot.offset, prev.offset + prev.capacity)
          << what << ", chunk " << q;
    }
  }
  // 12-bit values outgrow every slot: all kN chunks relocate at once.
  const std::uint64_t end_before = f.metadata().data_end;
  const std::uint64_t before = mem(f.data_storage()).stats().write_requests;
  fill(4000);
  ASSERT_TRUE(cache.flush().is_ok());
  EXPECT_EQ(mem(f.data_storage()).stats().write_requests - before, 1u)
      << what;
  std::uint64_t expect_offset = end_before;
  for (std::uint64_t q = 0; q < kN; ++q) {
    const ChunkSlot& slot = f.metadata().chunk_table[q];
    EXPECT_EQ(slot.offset, expect_offset) << what << ", chunk " << q;
    // Grown chunks get headroom for their next growth.
    EXPECT_GE(slot.capacity,
              std::min<std::uint64_t>(cb, slot.stored + slot.stored / 8))
        << what << ", chunk " << q;
    expect_offset = slot.offset + slot.capacity;
  }
  EXPECT_EQ(f.metadata().data_end, expect_offset) << what;

  auto reopened =
      DrxFile::open(copy_of(f.meta_storage()), copy_of(f.data_storage()));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  std::vector<std::byte> chunk(checked_size(cb));
  for (std::uint64_t q = 0; q < kN; ++q) {
    ASSERT_TRUE(reopened.value().read_chunk(q, chunk).is_ok());
    std::int64_t v = 0;
    std::memcpy(&v, chunk.data() + 5 * sizeof(v), sizeof(v));
    EXPECT_EQ(v, static_cast<std::int64_t>(q) + 5 * 37 % 4001)
        << what << ", chunk " << q;
  }
}

TEST(Compression, RelocationsFromOneFlushAreContiguousInAddressOrder) {
  expect_relocations_in_address_order(1, 0);
}

TEST(Compression, RelocationsFromOneFlushAreContiguousInAddressOrderOn8Shards) {
  for (const int io_threads : {0, 2}) {
    expect_relocations_in_address_order(8, io_threads);
  }
}

TEST(Compression, BatchedFlushNeverStarvesConcurrentPins) {
  // A flush claims every unpinned dirty frame — here all 4 frames of the
  // cache — and a concurrent demand pin that finds nothing to evict waits
  // for the claims instead of failing. Read-ahead is off: its
  // reservations are a separate claim on the pool.
  DrxFile file = make_compressed(Shape{16, 16}, Shape{2, 2});
  constexpr std::uint64_t kDirty = 4;
  constexpr int kRounds = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> refused{0};
  {
    ChunkCache cache(file, 4, ChunkCache::AsyncOptions{2, 0, 1});
    std::thread reader([&] {
      SplitMix64 rng(7);
      while (!stop.load()) {
        const std::uint64_t q = rng.next_in(32, 63);
        auto p = cache.pin(q, /*writable=*/false);
        if (!p.is_ok()) {
          if (p.status().code() == ErrorCode::kFailedPrecondition) ++refused;
          continue;
        }
        cache.unpin(q, /*dirty=*/false, /*writable=*/false);
      }
    });
    for (int round = 0; round < kRounds && refused.load() == 0; ++round) {
      for (std::uint64_t q = 0; q < kDirty; ++q) {
        auto p = cache.pin(q);
        if (!p.is_ok()) {
          if (p.status().code() == ErrorCode::kFailedPrecondition) ++refused;
          continue;
        }
        const double v = static_cast<double>(round);
        std::memcpy(p.value().data(), &v, sizeof(v));
        cache.unpin(q, /*dirty=*/true);
      }
      ASSERT_TRUE(cache.flush().is_ok());
    }
    stop.store(true);
    reader.join();
  }
  EXPECT_EQ(refused.load(), 0);
  std::vector<std::byte> chunk(checked_size(file.chunk_bytes()));
  for (std::uint64_t q = 0; q < kDirty; ++q) {
    ASSERT_TRUE(file.read_chunk(q, chunk).is_ok());
    double v = 0;
    std::memcpy(&v, chunk.data(), sizeof(v));
    EXPECT_EQ(v, static_cast<double>(kRounds - 1)) << "chunk " << q;
  }
}

/// MemStorage whose writes can be held: while `hold` is set, a write
/// counts itself in `held` and waits until `hold` is cleared. A flush
/// held there owns its claims, which makes the claim window observable.
class HeldWriteStorage final : public pfs::Storage {
 public:
  struct Controls {
    std::atomic<bool> hold{false};
    std::atomic<int> held{0};
  };

  explicit HeldWriteStorage(Controls& controls) : controls_(&controls) {}

  Status read_at(std::uint64_t offset, std::span<std::byte> out) override {
    return inner_.read_at(offset, out);
  }
  Status write_at(std::uint64_t offset,
                  std::span<const std::byte> data) override {
    if (controls_->hold.load()) {
      ++controls_->held;
      while (controls_->hold.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return inner_.write_at(offset, data);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  Status truncate(std::uint64_t new_size) override {
    return inner_.truncate(new_size);
  }
  Status flush() override { return Status::ok(); }
  [[nodiscard]] const pfs::IoStats& stats() const { return inner_.stats(); }

 private:
  Controls* controls_;
  pfs::MemStorage inner_;
};

DrxFile make_held(HeldWriteStorage::Controls& controls) {
  auto f = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                           std::make_unique<HeldWriteStorage>(controls),
                           Shape{16, 16}, Shape{2, 2}, compressed_opts());
  EXPECT_TRUE(f.is_ok()) << f.status();
  return std::move(f).value();
}

// The helpers below abort on a missed deadline: a call still blocked
// after 10 s is a deadlock, and the test cannot unwind past a blocked
// thread, so it reports and stops instead of hanging.
[[noreturn]] void deadlocked(const char* what) {
  std::fprintf(stderr, "%s: no progress within 10 s (deadlock)\n", what);
  std::abort();
}

template <typename Pred>
void wait_until(Pred done, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) deadlocked(what);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

template <typename T>
T get_within_deadline(std::future<T>& f, const char* what) {
  if (f.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    deadlocked(what);
  }
  return f.get();
}

TEST(Compression, FlushOfAFullShardIsOneRequestAndPinsWaitForIt) {
  // Every frame of a 1-shard, 4-frame cache is dirty, so the flush claims
  // them all. Demand pins that arrive while its write is in flight find
  // nothing to evict; they wait for the release and then all succeed.
  for (const int io_threads : {0, 2}) {
    HeldWriteStorage::Controls controls;
    DrxFile file = make_held(controls);
    const HeldWriteStorage& data =
        static_cast<const HeldWriteStorage&>(file.data_storage());
    ChunkCache cache(file, 4, ChunkCache::AsyncOptions{io_threads, 0, 1});
    dirty_chunks(cache, 4, 1.0);
    const std::uint64_t writes_before = data.stats().write_requests;
    controls.hold = true;
    auto flushed = std::async(std::launch::async, [&] { return cache.flush(); });
    wait_until([&] { return controls.held.load() == 1; }, "flush write");
    constexpr int kReaders = 2;
    constexpr int kPins = 50;
    std::atomic<int> started{0};
    std::vector<std::future<int>> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.push_back(std::async(std::launch::async, [&cache, &started, r] {
        ++started;
        int ok = 0;
        for (int i = 0; i < kPins; ++i) {
          // Chunks 32..63 of 64: never dirty, never resident before.
          const auto q = static_cast<std::uint64_t>(32 + 16 * r + i % 16);
          auto p = cache.pin(q, /*writable=*/false);
          if (!p.is_ok()) continue;
          cache.unpin(q, /*dirty=*/false, /*writable=*/false);
          ++ok;
        }
        return ok;
      }));
    }
    // Give both readers time to park on the claims. (Waiting on cache
    // state instead would take a shard lock the flush may hold.)
    wait_until([&] { return started.load() == kReaders; }, "readers");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    controls.hold = false;
    EXPECT_TRUE(get_within_deadline(flushed, "flush").is_ok());
    for (auto& r : readers) {
      EXPECT_EQ(get_within_deadline(r, "demand pins"), kPins)
          << "io_threads " << io_threads;
    }
    EXPECT_EQ(data.stats().write_requests - writes_before, 1u)
        << "io_threads " << io_threads;
  }
}

TEST(Compression, PinHolderAndFlushNeverDeadlock) {
  // T holds a writable pin on dirty chunk X while a flush claims the
  // other three frames; T then pins Y, which needs one of those frames.
  // The flush must release its claims before it waits for X, or T (waiting
  // for the claims) and the flush (waiting for X) block each other.
  for (const int io_threads : {0, 2}) {
    HeldWriteStorage::Controls controls;
    DrxFile file = make_held(controls);
    ChunkCache cache(file, 4, ChunkCache::AsyncOptions{io_threads, 0, 1});
    dirty_chunks(cache, 4, 1.0);
    constexpr std::uint64_t kX = 0;
    constexpr std::uint64_t kY = 40;
    auto x = cache.pin(kX, /*writable=*/true);
    ASSERT_TRUE(x.is_ok()) << x.status();

    controls.hold = true;
    auto flushed = std::async(std::launch::async, [&] { return cache.flush(); });
    wait_until([&] { return controls.held.load() == 1; }, "flush write");
    auto pinned_y = std::async(std::launch::async, [&] {
      auto y = cache.pin(kY, /*writable=*/false);
      if (y.is_ok()) cache.unpin(kY, /*dirty=*/false, /*writable=*/false);
      return y.status();
    });
    // Give the pin of Y time to park on the claims.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    controls.hold = false;
    EXPECT_TRUE(get_within_deadline(pinned_y, "pin of Y").is_ok())
        << "io_threads " << io_threads;
    // Only now does T release X; the flush then writes it too.
    const double v = 9.0;
    std::memcpy(x.value().data(), &v, sizeof(v));
    cache.unpin(kX, /*dirty=*/true, /*writable=*/true);
    EXPECT_TRUE(get_within_deadline(flushed, "flush").is_ok())
        << "io_threads " << io_threads;
    std::vector<std::byte> chunk(checked_size(file.chunk_bytes()));
    ASSERT_TRUE(file.read_chunk(kX, chunk).is_ok());
    double back = 0;
    std::memcpy(&back, chunk.data(), sizeof(back));
    EXPECT_EQ(back, v) << "io_threads " << io_threads;
  }
}

TEST(Compression, WriteChunksRejectsDuplicateAddresses) {
  DrxFile f = make_compressed(Shape{4, 4}, Shape{2, 2});
  std::vector<std::byte> raw(checked_size(f.chunk_bytes()), std::byte{0});
  std::vector<std::byte> s0, s1;
  DrxFile::ChunkWrite batch[2] = {{1, f.encode_chunk(raw, s0)},
                                  {1, f.encode_chunk(raw, s1)}};
  EXPECT_EQ(f.write_chunks(batch).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(f.metadata().chunk_table[1].unwritten());
}

// ---- DRX-MP: compressed arrays are read-only ------------------------------
// One transfer path serves both formats: encoded chunks are decoded after
// the I/O call, identity-coded ones land in place, unwritten ones are
// zero-filled.

TEST(CompressionMp, CollectiveReadOfSeriallyCompressedArray) {
  pfs::PfsConfig cfg;
  cfg.num_servers = 4;
  cfg.stripe_size = 256;
  pfs::Pfs fs(cfg);

  // Pre-create with the serial writer, straight onto the striped PFS.
  {
    auto meta_h = fs.create("carr.xmd", /*overwrite=*/true);
    auto data_h = fs.create("carr.xta", /*overwrite=*/true);
    ASSERT_TRUE(meta_h.is_ok());
    ASSERT_TRUE(data_h.is_ok());
    auto f = DrxFile::create(
        std::make_unique<pfs::PfsStorage>(std::move(meta_h).value()),
        std::make_unique<pfs::PfsStorage>(std::move(data_h).value()),
        Shape{12, 10}, Shape{3, 2}, compressed_opts());
    ASSERT_TRUE(f.is_ok()) << f.status();
    for_each_index(Box{{0, 0}, {12, 10}}, [&](const Index& idx) {
      ASSERT_TRUE(f.value().set<double>(idx, row_value(idx)).is_ok());
    });
    ASSERT_TRUE(f.value().flush().is_ok());
  }

  simpi::run(4, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::open(comm, fs, "carr");
    ASSERT_TRUE(fr.is_ok()) << fr.status();
    DrxMpFile& f = fr.value();
    ASSERT_TRUE(f.metadata().compressed());

    std::vector<double> out(12 * 10);
    ASSERT_TRUE(f.read_box_all(Box{{0, 0}, {12, 10}}, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(out)))
                    .is_ok());
    for_each_index(Box{{0, 0}, {12, 10}}, [&](const Index& idx) {
      ASSERT_EQ(out[static_cast<std::size_t>(idx[0] * 10 + idx[1])],
                row_value(idx));
    });

    // Writes and extension are rejected, not silently corrupted.
    EXPECT_EQ(f.write_box_all(Box{{0, 0}, {12, 10}}, MemoryOrder::kRowMajor,
                              std::as_bytes(std::span<const double>(out)))
                  .code(),
              ErrorCode::kUnsupported);
    EXPECT_EQ(f.extend_all(0, 3).code(), ErrorCode::kUnsupported);
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST(CompressionMp, CollectiveReadOfNeverWrittenChunks) {
  pfs::PfsConfig cfg;
  cfg.num_servers = 4;
  cfg.stripe_size = 256;
  pfs::Pfs fs(cfg);
  // Only the first chunk row (rows 0..2) is ever written.
  {
    auto meta_h = fs.create("sparse.xmd", /*overwrite=*/true);
    auto data_h = fs.create("sparse.xta", /*overwrite=*/true);
    ASSERT_TRUE(meta_h.is_ok());
    ASSERT_TRUE(data_h.is_ok());
    auto f = DrxFile::create(
        std::make_unique<pfs::PfsStorage>(std::move(meta_h).value()),
        std::make_unique<pfs::PfsStorage>(std::move(data_h).value()),
        Shape{12, 10}, Shape{3, 2}, compressed_opts());
    ASSERT_TRUE(f.is_ok()) << f.status();
    for_each_index(Box{{0, 0}, {3, 10}}, [&](const Index& idx) {
      ASSERT_TRUE(f.value().set<double>(idx, row_value(idx)).is_ok());
    });
    ASSERT_TRUE(f.value().flush().is_ok());
  }
  const auto expect = [](const Index& idx) {
    return idx[0] < 3 ? row_value(idx) : 0.0;
  };

  simpi::run(4, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::open(comm, fs, "sparse");
    ASSERT_TRUE(fr.is_ok()) << fr.status();
    DrxMpFile& f = fr.value();

    std::vector<double> out(12 * 10, -1.0);
    ASSERT_TRUE(f.read_box_all(Box{{0, 0}, {12, 10}}, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(out)))
                    .is_ok());
    for_each_index(Box{{0, 0}, {12, 10}}, [&](const Index& idx) {
      ASSERT_EQ(out[static_cast<std::size_t>(idx[0] * 10 + idx[1])],
                expect(idx));
    });

    // Rank r reads chunk row r: ranks 1..3 see only unwritten chunks and
    // still take part in the collective with an empty view.
    const std::uint64_t r = static_cast<std::uint64_t>(comm.rank());
    const Box mine{{3 * r, 0}, {3 * r + 3, 10}};
    std::vector<double> band(3 * 10, -1.0);
    ASSERT_TRUE(f.read_box_all(mine, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(band)))
                    .is_ok());
    for_each_index(mine, [&](const Index& idx) {
      ASSERT_EQ(band[static_cast<std::size_t>((idx[0] - 3 * r) * 10 + idx[1])],
                expect(idx));
    });
    ASSERT_TRUE(f.close().is_ok());
  });
}

/// Chunk (ci, cj) of the mixed array: 0 encoded, 1 identity-coded,
/// 2 never written.
int mixed_kind(const Index& chunk) {
  return static_cast<int>((chunk[0] + chunk[1]) % 3);
}

/// Random doubles have no runs, so RLE cannot beat raw: identity-coded.
double noise_value(const Index& idx) {
  return SplitMix64(idx[0] * 1000 + idx[1] + 1).next_double();
}

double mixed_value(const Index& idx) {
  switch (mixed_kind(Index{idx[0] / 4, idx[1] / 4})) {
    case 0: return row_value(idx);
    case 1: return noise_value(idx);
    default: return 0.0;
  }
}

TEST(CompressionMp, ReadsEncodedIdentityAndUnwrittenChunksTogether) {
  pfs::PfsConfig cfg;
  cfg.num_servers = 4;
  cfg.stripe_size = 256;
  pfs::Pfs fs(cfg);
  const Box all{{0, 0}, {16, 16}};
  {
    auto meta_h = fs.create("mixed.xmd", /*overwrite=*/true);
    auto data_h = fs.create("mixed.xta", /*overwrite=*/true);
    ASSERT_TRUE(meta_h.is_ok());
    ASSERT_TRUE(data_h.is_ok());
    auto f = DrxFile::create(
        std::make_unique<pfs::PfsStorage>(std::move(meta_h).value()),
        std::make_unique<pfs::PfsStorage>(std::move(data_h).value()),
        Shape{16, 16}, Shape{4, 4}, compressed_opts());
    ASSERT_TRUE(f.is_ok()) << f.status();
    for_each_index(Box{{0, 0}, {4, 4}}, [&](const Index& chunk) {
      if (mixed_kind(chunk) == 2) return;
      const Box box{{4 * chunk[0], 4 * chunk[1]},
                    {4 * chunk[0] + 4, 4 * chunk[1] + 4}};
      std::vector<double> values;
      for_each_index(box, [&](const Index& idx) {
        values.push_back(mixed_value(idx));
      });
      ASSERT_TRUE(f.value()
                      .write_box(box, MemoryOrder::kRowMajor,
                                 std::as_bytes(std::span<const double>(values)))
                      .is_ok());
    });
    ASSERT_TRUE(f.value().flush().is_ok());
    // The three kinds of slot are all present.
    int encoded = 0, identity = 0, unwritten = 0;
    for (const ChunkSlot& slot : f.value().metadata().chunk_table) {
      if (slot.unwritten()) {
        ++unwritten;
      } else if (slot.codec ==
                 static_cast<std::uint8_t>(codec::CodecId::kNone)) {
        ++identity;
      } else {
        ++encoded;
      }
    }
    ASSERT_GT(encoded, 0);
    ASSERT_GT(identity, 0);
    ASSERT_GT(unwritten, 0);
  }

  simpi::run(4, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::open(comm, fs, "mixed");
    ASSERT_TRUE(fr.is_ok()) << fr.status();
    DrxMpFile& f = fr.value();

    std::vector<double> out(16 * 16, -1.0);
    ASSERT_TRUE(f.read_box_all(all, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(out)))
                    .is_ok());
    for_each_index(all, [&](const Index& idx) {
      ASSERT_EQ(out[static_cast<std::size_t>(idx[0] * 16 + idx[1])],
                mixed_value(idx))
          << "(" << idx[0] << "," << idx[1] << ")";
    });

    // Rank r reads a column-major box that straddles chunk boundaries.
    const std::uint64_t r = static_cast<std::uint64_t>(comm.rank());
    const Box mine{{3 * r, 1}, {3 * r + 5, 15}};
    std::vector<double> part(5 * 14, -1.0);
    ASSERT_TRUE(
        f.read_box_independent(mine, MemoryOrder::kColMajor,
                               std::as_writable_bytes(std::span<double>(part)))
            .is_ok());
    for_each_index(mine, [&](const Index& idx) {
      const Index rel{idx[0] - mine.lo[0], idx[1] - mine.lo[1]};
      ASSERT_EQ(part[static_cast<std::size_t>(linearize(
                    rel, mine.shape(), MemoryOrder::kColMajor))],
                mixed_value(idx))
          << "(" << idx[0] << "," << idx[1] << ")";
    });
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST(CompressionMp, CollectiveCreateRejectsCodec) {
  pfs::Pfs fs(pfs::PfsConfig{});
  simpi::run(2, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::create(comm, fs, "nope", Shape{4, 4}, Shape{2, 2},
                                compressed_opts());
    ASSERT_FALSE(fr.is_ok());
    EXPECT_EQ(fr.status().code(), ErrorCode::kUnsupported);
  });
}

}  // namespace
}  // namespace drx::core
