#include "compiler/program_cache.hpp"

#include <bit>
#include <sstream>

#include "util/hash.hpp"
#include "util/require.hpp"

namespace sparsetrain::compiler {

namespace {

void put_double(std::ostringstream& os, double v) {
  // Bit pattern, so 0.8999999 and 0.9 never collide and -0.0/NaN payloads
  // stay distinct.
  os << std::bit_cast<std::uint64_t>(v) << ';';
}

void put_name(std::ostringstream& os, const std::string& name) {
  // Length-prefixed, so names containing the separator characters cannot
  // make two distinct inputs collide on one key.
  os << name.size() << ':' << name << ';';
}

}  // namespace

ProgramCache::ProgramCache(obs::Registry* metrics) {
  if (metrics == nullptr) {
    own_metrics_ = std::make_unique<obs::Registry>();
    metrics = own_metrics_.get();
  }
  hits_ = &metrics->counter("program_cache_hits_total");
  misses_ = &metrics->counter("program_cache_misses_total");
}

std::string ProgramCache::key(const workload::NetworkConfig& net,
                              const workload::SparsityProfile& profile,
                              const CompileOptions& options) {
  ST_REQUIRE(profile.size() == net.layers.size(),
             "profile does not match network");
  std::ostringstream os;
  os << "net=";
  put_name(os, net.name);
  for (const auto& l : net.layers) {
    put_name(os, l.name);
    os << l.in_channels << ',' << l.in_h << ',' << l.in_w << ','
       << l.out_channels << ',' << l.kernel << ',' << l.stride << ','
       << l.padding << ',' << l.has_bn << l.relu_after << l.first_layer
       << l.is_fc << ';';
  }
  os << "profile=";
  put_name(os, profile.name());
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const auto& d = profile.layer(i);
    put_double(os, d.input_acts);
    put_double(os, d.output_grads);
    put_double(os, d.mask);
  }
  os << "opts=" << options.batch << ',' << options.forward << options.gta
     << options.gtw << ',' << static_cast<int>(options.engine);
  return os.str();
}

std::uint64_t ProgramCache::fingerprint(const workload::NetworkConfig& net,
                                        const workload::SparsityProfile& profile,
                                        const CompileOptions& options) {
  return fnv1a(key(net, profile, options));
}

ProgramCache::ProgramPtr ProgramCache::get(
    const workload::NetworkConfig& net,
    const workload::SparsityProfile& profile, const CompileOptions& options) {
  std::string k = key(net, profile, options);
  std::promise<ProgramPtr> promise;
  std::shared_future<ProgramPtr> hit;
  {
    std::lock_guard lock(mu_);
    const auto it = cache_.find(k);
    if (it != cache_.end()) {
      hits_->inc();
      hit = it->second;
    } else {
      misses_->inc();
      cache_.emplace(k, promise.get_future().share());
    }
  }
  // A hit may still block (outside the lock) until the in-flight compile
  // finishes; only one worker ever compiles a key.
  if (hit.valid()) return hit.get();
  // We won the key: compile outside the lock while other workers wait on
  // the shared future.
  try {
    auto program =
        std::make_shared<const isa::Program>(compile(net, profile, options));
    promise.set_value(program);
    return program;
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard lock(mu_);
    cache_.erase(k);  // let a later request retry (waiters see the error)
    throw;
  }
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  return s;
}

std::size_t ProgramCache::size() const {
  std::lock_guard lock(mu_);
  return cache_.size();
}

}  // namespace sparsetrain::compiler
