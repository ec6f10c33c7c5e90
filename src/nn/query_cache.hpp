#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "interval/box.hpp"
#include "nn/symbolic_prop.hpp"

namespace nncs {

/// Reuse policy of the NN query cache sitting in front of the box queries'
/// abstract network transformers (interval / symbolic propagation).
enum class NnCacheMode {
  /// No cache: every abstract controller step propagates from scratch.
  kOff,
  /// Box queries only: exact-match replay on (network id, input box) plus
  /// containment reuse, where the cached `SymbolicBounds` of a covering
  /// entry are re-concretized on the tighter query box. Sound — bounds
  /// valid on B ⊇ B' are valid on B' — but wider than fresh propagation, so
  /// enclosures (and therefore reports) may differ from `kOff`. Relational
  /// queries (the zonotope loop) bypass the cache, so a zonotope run's
  /// reports equal `kOff`'s and its statistics read 0 lookups.
  kContainment,
};

[[nodiscard]] const char* to_string(NnCacheMode mode);

/// Parse "off" / "containment"; nullopt on anything else.
[[nodiscard]] std::optional<NnCacheMode> parse_nn_cache_mode(std::string_view text);

struct NnCacheConfig {
  NnCacheMode mode = NnCacheMode::kOff;
  /// LRU bound on the total number of cached queries (split across shards).
  std::size_t max_entries = std::size_t{1} << 16;

  [[nodiscard]] bool enabled() const {
    return mode != NnCacheMode::kOff && max_entries > 0;
  }
};

/// Sharded, thread-safe, LRU-bounded store of abstract NN controller-step
/// results for box queries, keyed by (network id, domain tag, pre-processed
/// input box). One instance is shared by every thread analyzing cells of one
/// verification run (it hangs off the `NeuralController`), so reuse crosses
/// cell and thread boundaries. The domain tag keeps entries of different
/// transformers apart: an interval-domain result replayed for a
/// symbolic-domain query (or vice versa) would silently substitute one
/// transformer's enclosure for another's. Relational (affine-input) queries
/// never reach the cache.
///
/// Box keys hash their bounds' bit patterns with -0.0 canonicalized to 0.0,
/// matching `Box::operator==` (which compares doubles, so -0.0 == 0.0).
class NnQueryCache {
 public:
  /// Opaque domain tag mixed into the key (callers pass their NnDomain
  /// enumerator value; the cache only needs distinctness).
  using DomainTag = std::uint8_t;
  /// What containment reuse re-concretizes on a tighter box: the affine
  /// bounds of a symbolic-domain propagation. Null for interval-domain
  /// entries, which only exact replay uses.
  using Reuse = std::shared_ptr<const SymbolicBounds>;
  /// One cached abstract step: the pruned command set and output enclosure,
  /// plus the reuse payload.
  struct Result {
    std::vector<std::size_t> commands;
    Box output_box;
    Reuse reuse;
  };

  struct Stats {
    std::uint64_t hits = 0;              ///< queries answered from the cache
    std::uint64_t misses = 0;            ///< queries that propagated from scratch
    std::uint64_t containment_hits = 0;  ///< subset of hits: containment reuse
    std::uint64_t reuse_fallbacks = 0;   ///< subset of misses: reused bounds pruned nothing
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;  ///< approximate retained footprint

    [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
    [[nodiscard]] double hit_rate() const {
      return lookups() == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups());
    }
  };

  /// Most-recently-used entries of each shard examined per containment
  /// lookup. Bounds the linear scan — containment is a range query an
  /// exact-match hash map cannot answer, and recency correlates with
  /// containment (children are analyzed soon after the parent whose box
  /// covers theirs).
  static constexpr std::size_t kContainmentWindow = 64;

  explicit NnQueryCache(NnCacheConfig config = {});
  ~NnQueryCache();

  NnQueryCache(const NnQueryCache&) = delete;
  NnQueryCache& operator=(const NnQueryCache&) = delete;

  [[nodiscard]] const NnCacheConfig& config() const { return config_; }
  [[nodiscard]] NnCacheMode mode() const { return config_.mode; }

  /// Exact-match lookup; promotes the entry to most-recently-used. Does not
  /// touch the hit/miss statistics — the caller reports the overall outcome
  /// of the step through count_hit()/count_miss() once it is known.
  [[nodiscard]] std::optional<Result> find_exact(std::size_t net_id, DomainTag domain,
                                                 const Box& input);

  /// Reuse payload of the tightest cached entry of the same network and
  /// domain (within the kContainmentWindow MRU window of each shard) whose
  /// input box contains `input`; null when none carries one.
  [[nodiscard]] Reuse find_containing(std::size_t net_id, DomainTag domain, const Box& input);

  /// Insert (or refresh) an entry; evicts least-recently-used entries past
  /// `max_entries`.
  void insert(std::size_t net_id, DomainTag domain, const Box& input, Result result);

  void count_hit(bool containment);
  void count_miss(bool after_reuse_attempt);

  /// Merged statistics across shards (approximate while writers race).
  [[nodiscard]] Stats stats() const;

  /// Drop every entry (statistics are kept).
  void clear();

 private:
  struct Key {
    std::size_t net_id = 0;
    DomainTag domain = 0;
    Box input;

    bool operator==(const Key& other) const {
      return net_id == other.net_id && domain == other.domain && input == other.input;
    }
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  struct Entry {
    Key key;
    Result result;
    std::size_t bytes = 0;
  };

  static constexpr std::size_t kShards = 8;

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  };

  Shard& shard_for(std::size_t net_id, DomainTag domain, const Box& input);

  NnCacheConfig config_;
  std::size_t max_per_shard_ = 0;
  std::array<Shard, kShards> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> containment_hits_{0};
  std::atomic<std::uint64_t> reuse_fallbacks_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace nncs
