// append_scan: the paper's append-then-analyse pattern, serial and out of
// core. A bit-packed int32 [time, 2048] array grows 8 steps at a time
// through an async CachedDrxFile (flush, DrxFile::extend, write_box of
// the new slab) until it is 16x the cache, then column bands covering all
// time are read back in column-major order. Loads extend, the codec,
// write-behind, read-ahead and the transposing copy; serve, mpio and
// simpi stay idle.
#include <cstdio>
#include <vector>

#include "core/chunk_cache.hpp"
#include "core/drx_file.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using drx::core::Box;
using drx::core::DrxFile;
using drx::core::Index;
using drx::core::MemoryOrder;
using drx::core::Shape;

constexpr std::uint64_t kCells = 2048;
constexpr std::uint64_t kChunk = 64;            // 64 x 64 int32 = 16 KiB
constexpr std::uint64_t kStep = 8;              // rows appended per step
constexpr std::size_t kCacheChunks = 128;       // 2 MiB
constexpr int kIoThreads = 2;
constexpr std::uint64_t kPrefetchDepth = 8;
constexpr std::uint64_t kChunkBytes = kChunk * kChunk * sizeof(std::int32_t);
constexpr std::uint64_t kCacheBytes = kCacheChunks * kChunkBytes;
// The array ends at 16x the cache: 4096 time steps.
constexpr std::uint64_t kRows = 16 * kCacheBytes / (kCells * sizeof(std::int32_t));
// Each band box is 2x the cache: the prototype's scan rate fell by about
// 45% once the band outgrew the cache, so the band-to-cache ratio is
// fixed and run length is set by passes, never by band size.
constexpr std::uint64_t kBandCols = 2 * kCacheBytes / (kRows * sizeof(std::int32_t));
constexpr int kPasses = 4;
constexpr double kDeadlineS = 5.0;

static_assert(kRows % kChunk == 0 && kCells % kBandCols == 0);
static_assert(kRows * kCells <= (1ULL << 23), "coordinates need 23 bits");

// v(t, c) = coord | noise << 23 with coord = t * 2048 + c: every value
// decodes to its coordinates. Each chunk draws (from the seed) how many
// noise bits it carries: none for 3 chunks in 4, else 1..8. The bit-pack
// codec stores a chunk at the width of its value range, so stored sizes,
// device bytes and simulated times follow the data, per seed.
class Values {
 public:
  explicit Values(std::uint64_t seed) : seed_(seed) {
    const std::uint64_t chunk_cols = kCells / kChunk;
    bits_.resize(kRows / kChunk * chunk_cols);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      const std::uint64_t h = mix(seed ^ (0x5eedULL << 40) ^ i);
      bits_[i] = (h & 3) != 0 ? 0 : static_cast<std::uint8_t>(1 + (h >> 8) % 8);
    }
  }

  [[nodiscard]] std::int32_t at(std::uint64_t t, std::uint64_t c) const {
    const std::uint64_t coord = t * kCells + c;
    const std::uint8_t bits = bits_[(t / kChunk) * (kCells / kChunk) + c / kChunk];
    const std::uint64_t noise =
        bits == 0 ? 0 : mix(seed_ + coord) & ((1ULL << bits) - 1);
    return static_cast<std::int32_t>(coord | noise << 23);
  }

 private:
  std::uint64_t seed_;
  std::vector<std::uint8_t> bits_;
};

RoundResult round(const Args& args, int index, bool traced, Watchdog& dog) {
  RoundResult r;
  const Values values(args.seed * 1000003 + static_cast<std::uint64_t>(index));

  // ---- set-up: empty array + async cache ----------------------------------
  const double setup_cpu = process_cpu_s();
  StoragePair storage = StoragePair::make(traced);
  DrxFile::Options options;
  options.dtype = drx::core::ElementType::kInt32;
  options.codec = drx::codec::CodecId::kBitPack;
  auto created = DrxFile::create(std::move(storage.meta),
                                 std::move(storage.data), Shape{0, kCells},
                                 Shape{kChunk, kChunk}, options);
  if (!created.is_ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 created.status().message().c_str());
    std::exit(1);
  }
  DrxFile file = std::move(created).value();
  drx::core::ChunkCache::AsyncOptions async;
  async.io_threads = kIoThreads;
  async.prefetch_depth = kPrefetchDepth;
  async.shards = 1;
  auto cached =
      std::make_unique<drx::core::CachedDrxFile>(file, kCacheChunks, async);
  // The round's input, generated up front: the measured part runs only
  // library calls and the checks.
  std::vector<std::int32_t> input(kRows * kCells);
  for (std::uint64_t t = 0; t < kRows; ++t) {
    for (std::uint64_t c = 0; c < kCells; ++c) {
      input[t * kCells + c] = values.at(t, c);
    }
  }
  std::vector<std::int32_t> band(kRows * kBandCols);
  r.setup_s = process_cpu_s() - setup_cpu;

  const drx::pfs::IoStats dev0 = storage.stats();
  const drx::obs::MetricsSnapshot reg0 = registry_now();
  const LayerLedger led0 = collect_ledger();
  Tracer::get().set_enabled(traced);
  const double cpu0 = process_cpu_s();

  // One op = one library call sequence, timed and watched. Latency
  // samples are append steps only: the 32 band reads of a round would
  // put p99 on the edge between two populations.
  const auto op = [&](bool sample, auto&& body) {
    ++r.attempted;
    ++r.ops;
    dog.begin(0);
    const std::uint64_t t0 = now_ns();
    const bool ok = body();
    const std::uint64_t dt = now_ns() - t0;
    const bool late = dog.end(0);
    if (sample) {
      r.latency_us.push_back(
          static_cast<float>(static_cast<double>(dt) / 1e3));
    }
    if (!ok || late) ++r.failed;
    return static_cast<double>(dt) / 1e9;
  };

  drx::pfs::IoStats dev_written;
  {
    Span root(Layer::kRound);
    // ---- append: flush, extend by one slab, write it ----------------------
    for (std::uint64_t t0 = 0; t0 < kRows; t0 += kStep) {
      const auto slab = std::span<const std::int32_t>(input).subspan(
          t0 * kCells, kStep * kCells);
      r.write_wall_s += op(true, [&] {
        {
          Span s(Layer::kCacheFlush);
          if (!cached->flush().is_ok()) return false;
        }
        {
          Span s(Layer::kFileExtend);
          if (!file.extend(0, kStep).is_ok()) return false;
        }
        Span s(Layer::kCacheWriteBox);
        const Box box{Index{t0, 0}, Index{t0 + kStep, kCells}};
        return cached
            ->write_box(box, MemoryOrder::kRowMajor, std::as_bytes(slab))
            .is_ok();
      });
      r.user_write_bytes += slab.size() * sizeof(std::int32_t);
    }
    r.write_wall_s += op(false, [&] {
      Span s(Layer::kCacheFlush);
      return cached->flush().is_ok();
    });
    dev_written = storage.stats();

    // ---- scan: column bands over all time, column-major ------------------
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::uint64_t c0 = 0; c0 < kCells; c0 += kBandCols) {
        const Box box{Index{0, c0}, Index{kRows, c0 + kBandCols}};
        r.read_wall_s += op(false, [&] {
          Span s(Layer::kCacheReadBox);
          return cached
              ->read_box(box, MemoryOrder::kColMajor,
                         std::as_writable_bytes(std::span<std::int32_t>(band)))
              .is_ok();
        });
        r.user_read_bytes += band.size() * sizeof(std::int32_t);
        Span verify(Layer::kVerify);
        for (std::uint64_t c = 0; c < kBandCols; ++c) {
          const std::int32_t* col = band.data() + c * kRows;
          for (std::uint64_t t = 0; t < kRows; ++t) {
            if (col[t] != input[t * kCells + c0 + c]) {
              ++r.mismatches;
              ++r.failed;
              c = kBandCols;
              break;
            }
          }
        }
      }
    }
  }
  r.cpu_s = process_cpu_s() - cpu0;
  Tracer::get().set_enabled(false);

  const drx::pfs::IoStats dev_end = storage.stats();
  r.wall_s = r.write_wall_s + r.read_wall_s;
  r.sim_write_us = (dev_written - dev0).busy_us;
  r.sim_read_us = (dev_end - dev_written).busy_us;
  const drx::pfs::IoStats dev = dev_end - dev0;
  r.device_bytes = dev.bytes_read + dev.bytes_written;
  r.stored_bytes = storage.stored_bytes();
  r.logical_bytes = kRows * kCells * sizeof(std::int32_t);

  if (traced) {
    const drx::obs::MetricsSnapshot reg1 = registry_now();
    add_registry_layers(reg0, reg1,
                        static_cast<double>(r.user_read_bytes +
                                            r.user_write_bytes),
                        r);
    add_ledger_layers(collect_ledger().minus(led0), 0, r);
    add_cache_layers(cached->cache(), r);
    add_device_layers({dev}, r);
    reconcile_registry(dev, reg0, reg1, r);
  }
  cached.reset();
  if (traced) reconcile_storage(storage, r);
  return r;
}

}  // namespace

std::vector<RoundResult> run_append_scan(const Args& args) {
  check_thread_budget("append_scan", 1 + kIoThreads,
                      "1 writer/scanner + 2 cache I/O threads");
  Watchdog dog(1, kDeadlineS, 30.0);
  return run_rounds(args, 3, [&](int index, bool traced) {
    return round(args, index, traced, dog);
  });
}

}  // namespace perfbench
