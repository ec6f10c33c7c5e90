#include "nn/query_cache.hpp"

#include <cstring>
#include <utility>

#include "obs/span.hpp"

namespace nncs {

namespace {

/// Bit pattern of a bound with -0.0 canonicalized to 0.0, because
/// Box::operator== compares doubles (-0.0 == 0.0) and equal keys must hash
/// equally.
std::uint64_t bound_bits(double v) {
  if (v == 0.0) {
    v = 0.0;
  }
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::size_t hash_combine(std::size_t seed, std::uint64_t v) {
  // splitmix64-style mixing; good avalanche for bit-pattern inputs.
  v += 0x9e3779b97f4a7c15ULL + seed;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(v ^ (v >> 31));
}

/// Approximate heap footprint of one entry (key copy in the index included).
std::size_t entry_bytes(const Box& input, const NnQueryCache::Result& result) {
  std::size_t bytes = 2 * input.dim() * sizeof(Interval);  // entry key + index key
  bytes += result.commands.size() * sizeof(std::size_t);
  bytes += result.output_box.dim() * sizeof(Interval);
  if (const SymbolicBounds* sb = result.reuse.get()) {
    bytes += sizeof(SymbolicBounds);
    bytes += (sb->input.dim() + sb->output_box.dim()) * sizeof(Interval);
    for (const NeuronBounds& nb : sb->outputs) {
      bytes += sizeof(NeuronBounds);
      bytes += (nb.lower.coeffs.size() + nb.upper.coeffs.size()) * sizeof(double);
    }
  }
  return bytes;
}

}  // namespace

const char* to_string(NnCacheMode mode) {
  switch (mode) {
    case NnCacheMode::kOff:
      return "off";
    case NnCacheMode::kContainment:
      return "containment";
  }
  return "?";
}

std::optional<NnCacheMode> parse_nn_cache_mode(std::string_view text) {
  if (text == "off") {
    return NnCacheMode::kOff;
  }
  if (text == "containment") {
    return NnCacheMode::kContainment;
  }
  return std::nullopt;
}

std::size_t NnQueryCache::KeyHash::operator()(const Key& key) const {
  std::size_t seed = hash_combine(0, key.net_id);
  seed = hash_combine(seed, key.domain);
  for (const Interval& iv : key.input.intervals()) {
    seed = hash_combine(seed, bound_bits(iv.lo()));
    seed = hash_combine(seed, bound_bits(iv.hi()));
  }
  return seed;
}

NnQueryCache::NnQueryCache(NnCacheConfig config) : config_(config) {
  max_per_shard_ = config_.max_entries / kShards;
  if (max_per_shard_ == 0 && config_.max_entries > 0) {
    max_per_shard_ = 1;
  }
}

NnQueryCache::~NnQueryCache() { clear(); }

NnQueryCache::Shard& NnQueryCache::shard_for(std::size_t net_id, DomainTag domain,
                                             const Box& input) {
  Key probe{net_id, domain, input};
  return shards_[KeyHash{}(probe) % kShards];
}

std::optional<NnQueryCache::Result> NnQueryCache::find_exact(std::size_t net_id, DomainTag domain,
                                                             const Box& input) {
  NNCS_SPAN("nn.cache.lookup");
  Shard& shard = shard_for(net_id, domain, input);
  const Key key{net_id, domain, input};
  std::lock_guard lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // promote to MRU
  return it->second->result;
}

NnQueryCache::Reuse NnQueryCache::find_containing(std::size_t net_id, DomainTag domain,
                                                  const Box& input) {
  NNCS_SPAN("nn.cache.lookup");
  // Containment is not a hash lookup: scan the shard's MRU window for the
  // tightest covering box. Shards are per-key, so a parent's entry lives in
  // a different shard than its child's exact slot would — scan them all.
  Reuse best;
  double best_volume = 0.0;
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    std::size_t scanned = 0;
    for (const Entry& entry : shard.lru) {
      if (++scanned > kContainmentWindow) {
        break;
      }
      if (entry.key.net_id != net_id || entry.key.domain != domain || !entry.result.reuse) {
        continue;
      }
      if (!entry.key.input.contains(input)) {
        continue;
      }
      const double volume = entry.key.input.volume();
      if (!best || volume < best_volume) {
        best = entry.result.reuse;
        best_volume = volume;
      }
    }
  }
  return best;
}

void NnQueryCache::insert(std::size_t net_id, DomainTag domain, const Box& input, Result result) {
  Shard& shard = shard_for(net_id, domain, input);
  Key key{net_id, domain, input};
  const std::size_t bytes = entry_bytes(input, result);
  std::size_t evicted = 0;
  std::size_t evicted_bytes = 0;
  {
    std::lock_guard lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Racing insert of the same query from another thread: refresh.
      const std::size_t old_bytes = it->second->bytes;
      bytes_.fetch_add(bytes, std::memory_order_relaxed);
      bytes_.fetch_sub(old_bytes, std::memory_order_relaxed);
      NNCS_GAUGE_ADD("nn.cache.bytes",
                     static_cast<std::int64_t>(bytes) - static_cast<std::int64_t>(old_bytes));
      it->second->result = std::move(result);
      it->second->bytes = bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.push_front(Entry{std::move(key), std::move(result), bytes});
    shard.index.emplace(shard.lru.front().key, shard.lru.begin());
    while (shard.lru.size() > max_per_shard_) {
      const Entry& victim = shard.lru.back();
      evicted_bytes += victim.bytes;
      ++evicted;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  NNCS_GAUGE_ADD("nn.cache.entries", 1);
  NNCS_GAUGE_ADD("nn.cache.bytes", static_cast<std::int64_t>(bytes));
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    entries_.fetch_sub(evicted, std::memory_order_relaxed);
    bytes_.fetch_sub(evicted_bytes, std::memory_order_relaxed);
    NNCS_COUNT("nn.cache.evictions", evicted);
    NNCS_GAUGE_ADD("nn.cache.entries", -static_cast<std::int64_t>(evicted));
    NNCS_GAUGE_ADD("nn.cache.bytes", -static_cast<std::int64_t>(evicted_bytes));
  }
}

void NnQueryCache::count_hit(bool containment) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  NNCS_COUNT("nn.cache.hits", 1);
  if (containment) {
    containment_hits_.fetch_add(1, std::memory_order_relaxed);
    NNCS_COUNT("nn.cache.containment_hits", 1);
  }
}

void NnQueryCache::count_miss(bool after_reuse_attempt) {
  misses_.fetch_add(1, std::memory_order_relaxed);
  NNCS_COUNT("nn.cache.misses", 1);
  if (after_reuse_attempt) {
    reuse_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    NNCS_COUNT("nn.cache.reuse_fallbacks", 1);
  }
}

NnQueryCache::Stats NnQueryCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.containment_hits = containment_hits_.load(std::memory_order_relaxed);
  s.reuse_fallbacks = reuse_fallbacks_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

void NnQueryCache::clear() {
  std::size_t dropped = 0;
  std::size_t dropped_bytes = 0;
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (const Entry& entry : shard.lru) {
      ++dropped;
      dropped_bytes += entry.bytes;
    }
    shard.index.clear();
    shard.lru.clear();
  }
  if (dropped > 0) {
    entries_.fetch_sub(dropped, std::memory_order_relaxed);
    bytes_.fetch_sub(dropped_bytes, std::memory_order_relaxed);
    NNCS_GAUGE_ADD("nn.cache.entries", -static_cast<std::int64_t>(dropped));
    NNCS_GAUGE_ADD("nn.cache.bytes", -static_cast<std::int64_t>(dropped_bytes));
  }
}

}  // namespace nncs
