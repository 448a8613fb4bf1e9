#include <string>
#include <utility>

#include "api/engine.h"
#include "logic/printer.h"

namespace swfomc::api {

namespace {

/// Per-entry bookkeeping beyond CompiledQuery::MemoryBytes: the key
/// string, the list node, and the index slot (same estimation style as
/// ComponentCache::kEntryOverheadBytes).
constexpr std::size_t kEntryOverheadBytes =
    sizeof(std::string) + sizeof(void*) * 4 + sizeof(std::size_t) * 2;

void Add(obs::Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->Add(n);
}

void Set(obs::Gauge* gauge, std::size_t value) {
  if (gauge != nullptr) gauge->Set(static_cast<std::int64_t>(value));
}

}  // namespace

CircuitCache::CircuitCache()
    : CircuitCache(kDefaultMaxCircuits, kDefaultMaxBytes, Metrics{}) {}

CircuitCache::CircuitCache(std::size_t max_circuits, std::size_t max_bytes,
                           Metrics metrics)
    : max_circuits_(max_circuits), max_bytes_(max_bytes), metrics_(metrics) {}

CircuitCache::Lookup CircuitCache::GetOrCompile(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary,
    Method method, std::uint64_t domain_size,
    const std::function<CompileResult()>& compile) {
  // '\x1f' separates the fields; parsed identifiers never contain it.
  std::string key = logic::ToString(sentence, vocabulary);
  for (logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    key.push_back('\x1f');
    key += vocabulary.name(id);
    key.push_back('/');
    key += std::to_string(vocabulary.arity(id));
  }
  if (method == Method::kGrounded) {
    key += "\x1f@";
    key += std::to_string(domain_size);
  }

  Lookup lookup;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      Add(metrics_.hits);
      lookup.query = it->second->query;
      lookup.cached = true;
      return lookup;
    }
    Add(metrics_.misses);
  }
  lookup.compile = compile();
  if (lookup.compile.outcome == Outcome::kExact) {
    lookup.query = std::make_shared<const CompiledQuery>(
        std::move(*lookup.compile.compiled));
    lookup.compile.compiled.reset();
    Insert(key, lookup.query);
  }
  return lookup;
}

void CircuitCache::Insert(const std::string& key,
                          std::shared_ptr<const CompiledQuery> query) {
  std::size_t bytes =
      query->MemoryBytes() + key.capacity() + kEntryOverheadBytes;
  if (max_circuits_ == 0 || bytes > max_bytes_) {
    // Serving an oversized circuit is fine; pinning the whole cache to it
    // is not (ComponentCache applies the same rule to giant entries).
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A concurrent caller compiled the same key first; keep the fresher
    // entry and refresh its LRU position.
    levels_.bytes -= it->second->bytes;
    it->second->query = std::move(query);
    it->second->bytes = bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(query), bytes});
    index_[key] = lru_.begin();
  }
  levels_.bytes += bytes;
  if (levels_.bytes > levels_.bytes_peak) levels_.bytes_peak = levels_.bytes;
  while (lru_.size() > max_circuits_ ||
         (lru_.size() > 1 && levels_.bytes > max_bytes_)) {
    Entry& victim = lru_.back();
    levels_.bytes -= victim.bytes;
    Add(metrics_.evictions);
    Add(metrics_.evicted_bytes, victim.bytes);
    index_.erase(victim.key);
    lru_.pop_back();
  }
  levels_.circuits = lru_.size();
  Set(metrics_.circuits, levels_.circuits);
  Set(metrics_.bytes, levels_.bytes);
  Set(metrics_.bytes_peak, levels_.bytes_peak);
}

CircuitCache::Levels CircuitCache::levels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return levels_;
}

}  // namespace swfomc::api
