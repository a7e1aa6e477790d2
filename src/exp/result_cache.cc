#include "exp/result_cache.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/check.h"

namespace nimbus::exp {

namespace fs = std::filesystem;

double CellResult::value(std::size_t i) const {
  if (!valid || i >= values.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return values[i];
}

const char* CellResult::fail_label() const {
  switch (fail) {
    case Fail::kNone: return "";
    case Fail::kShardSkip: return "SKIP";
    case Fail::kTimeout: return "TIMEOUT";
    case Fail::kEventBudget: return "EVENT-BUDGET";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Entry serialization.  Text, one double per line as its exact IEEE-754
// bit pattern, closed by a checksum line over every preceding byte — a
// truncated write (power cut mid-rename is impossible, but a partially
// copied cache artifact is not) fails the checksum and reads as a miss.
// ---------------------------------------------------------------------------

namespace {

std::string encode_entry(const Hash128& spec_hash, std::uint64_t seed,
                         const Hash128& fp, const CellResult& r) {
  std::string out = "nimbus-cell/v1\n";
  out += "spec " + spec_hash.hex() + "\n";
  out += "seed " + std::to_string(seed) + "\n";
  out += "fp " + fp.hex() + "\n";
  out += "n " + std::to_string(r.values.size()) + "\n";
  char buf[24];
  for (double v : r.values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    std::snprintf(buf, sizeof(buf), "%016llx\n",
                  static_cast<unsigned long long>(bits));
    out += buf;
  }
  out += "ok " + fnv128(out).hex() + "\n";
  return out;
}

/// Strict inverse of encode_entry for the given key; nullopt on any
/// mismatch (wrong key, bad checksum, truncation, parse error).
std::optional<CellResult> decode_entry(const std::string& text,
                                       const Hash128& spec_hash,
                                       std::uint64_t seed,
                                       const Hash128& fp) {
  // Split off the trailing "ok <hex>\n" line and verify it covers the rest.
  if (text.size() < 4 || text.back() != '\n') return std::nullopt;
  const std::size_t ok_start = text.rfind("ok ", text.size() - 2);
  if (ok_start == std::string::npos || ok_start == 0 ||
      text[ok_start - 1] != '\n') {
    return std::nullopt;
  }
  const std::string payload = text.substr(0, ok_start);
  const std::string ok_line =
      text.substr(ok_start + 3, text.size() - ok_start - 4);
  if (fnv128(payload).hex() != ok_line) return std::nullopt;

  std::istringstream in(payload);
  std::string line;
  auto expect = [&](const std::string& want) {
    return std::getline(in, line) && line == want;
  };
  if (!expect("nimbus-cell/v1")) return std::nullopt;
  if (!expect("spec " + spec_hash.hex())) return std::nullopt;
  if (!expect("seed " + std::to_string(seed))) return std::nullopt;
  if (!expect("fp " + fp.hex())) return std::nullopt;
  if (!std::getline(in, line) || line.rfind("n ", 0) != 0) return std::nullopt;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(line.c_str() + 2, &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;

  CellResult r;
  r.values.reserve(n);
  for (unsigned long long i = 0; i < n; ++i) {
    if (!std::getline(in, line) || line.size() != 16) return std::nullopt;
    std::uint64_t bits = std::strtoull(line.c_str(), &end, 16);
    if (end != line.c_str() + 16) return std::nullopt;
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    r.values.push_back(v);
  }
  if (std::getline(in, line)) return std::nullopt;  // trailing garbage
  r.from_cache = true;
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// ResultCache.
// ---------------------------------------------------------------------------

ResultCache::ResultCache(std::string dir, Mode mode)
    : dir_(std::move(dir)), mode_(mode) {}

std::string ResultCache::entry_path(const Hash128& spec_hash,
                                    std::uint64_t seed) const {
  return dir_ + "/" + code_fingerprint().hex() + "/" + spec_hash.hex() +
         "-" + std::to_string(seed) + ".cell";
}

std::optional<CellResult> ResultCache::load(const Hash128& spec_hash,
                                            std::uint64_t seed) {
  if (!enabled()) return std::nullopt;
  const std::string path = entry_path(spec_hash, seed);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto r = decode_entry(ss.str(), spec_hash, seed, code_fingerprint());
  std::lock_guard<std::mutex> lock(mu_);
  if (!r) {
    ++stats_.corrupt;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return r;
}

void ResultCache::store(const Hash128& spec_hash, std::uint64_t seed,
                        const CellResult& r) {
  if (!writable() || !r.valid) return;
  const std::string path = entry_path(spec_hash, seed);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  // Atomic publish: write a sibling temp file, then rename.  Readers see
  // either no entry or a complete one; concurrent writers of the same
  // cell race benignly (identical content, last rename wins).
  static std::atomic<unsigned> counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  bool ok = !ec;
  if (ok) {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << encode_entry(spec_hash, seed, code_fingerprint(), r);
    out.flush();
    ok = out.good();
    out.close();
    if (ok) {
      fs::rename(tmp, path, ec);
      ok = !ec;
    }
    if (!ok) fs::remove(tmp, ec);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    ++stats_.stores;
  } else if (!warned_unwritable_) {
    warned_unwritable_ = true;
    std::fprintf(stderr,
                 "nimbus-cache: WARNING: cannot write %s; running uncached\n",
                 dir_.c_str());
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Process-wide configuration.
// ---------------------------------------------------------------------------

ResultCache& process_cache() {
  static ResultCache* cache =
      new ResultCache(process_config().cache_dir, process_config().cache);
  return *cache;
}

Hash128 code_fingerprint() {
  static const Hash128 fp = [] {
    std::ifstream in("/proc/self/exe", std::ios::binary);
    NIMBUS_CHECK_MSG(in.good(),
                     "code_fingerprint: /proc/self/exe unreadable; the "
                     "result cache requires a build fingerprint");
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string bytes = ss.str();
    return fnv128(bytes.data(), bytes.size());
  }();
  return fp;
}

// ---------------------------------------------------------------------------
// Sharding.
// ---------------------------------------------------------------------------

bool cell_in_shard(const Hash128& spec_hash, std::uint64_t seed,
                   const ShardConfig& shard) {
  if (!shard.active()) return true;
  // Mix both hash halves with the seed so the partition is uncorrelated
  // with either alone; k is 1-based.
  const std::uint64_t mixed =
      mix_seed(spec_hash.lo ^ mix_seed(spec_hash.hi ^ mix_seed(seed)));
  return mixed % static_cast<std::uint64_t>(shard.n) ==
         static_cast<std::uint64_t>(shard.k - 1);
}

namespace {
std::atomic<long> g_shard_skipped{0};
}  // namespace

long shard_skipped_count() { return g_shard_skipped.load(); }
void note_shard_skip() { g_shard_skipped.fetch_add(1); }

void print_cache_stats_if_active(std::FILE* out) {
  const ResultCache& cache = process_cache();
  const ShardConfig& shard = process_config().shard;
  if (!cache.enabled() && !shard.active()) return;
  const ResultCache::Stats s = cache.stats();
  std::fprintf(out,
               "nimbus-cache: mode=%s dir=%s hits=%ld misses=%ld "
               "corrupt=%ld stores=%ld shard=%d/%d shard_skipped=%ld\n",
               cache.mode() == ResultCache::Mode::kOff
                   ? "off"
                   : (cache.writable() ? "readwrite" : "read"),
               cache.dir().c_str(), s.hits, s.misses, s.corrupt, s.stores,
               shard.k, shard.n, shard_skipped_count());
}

}  // namespace nimbus::exp
