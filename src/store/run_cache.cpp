#include "store/run_cache.hpp"

#include "obs/registry.hpp"

namespace maestro::store {

std::optional<flow::FlowResult> RunCache::lookup(std::uint64_t fingerprint) {
  static obs::Counter& hit_counter = obs::Registry::global().counter("store.cache_hit");
  static obs::Counter& miss_counter = obs::Registry::global().counter("store.cache_miss");
  auto result = store_->find_run(fingerprint);
  (result ? hit_counter : miss_counter).add();
  return result;
}

void RunCache::insert(std::uint64_t fingerprint, const RunKey& key,
                      const flow::FlowResult& result) {
  static obs::Counter& insert_counter = obs::Registry::global().counter("store.cache_insert");
  StoredRun run;
  run.fingerprint = fingerprint;
  run.key = key;
  run.result = result;
  store_->append_run(std::move(run));
  insert_counter.add();
}

}  // namespace maestro::store
